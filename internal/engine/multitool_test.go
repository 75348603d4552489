package engine_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/deadlock"
	"repro/internal/engine"
	"repro/internal/highlevel"
	"repro/internal/hybrid"
	"repro/internal/lockset"
	"repro/internal/memcheck"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/tracelog"
	"repro/internal/vectorclock"
	"repro/internal/vm"
)

// allToolSpecs is the full registry: three race detectors plus all three
// auxiliary checkers, the acceptance configuration of the routed pipeline.
func allToolSpecs(cfg lockset.Config) []trace.ToolSpec {
	return []trace.ToolSpec{
		lockset.Spec(cfg),
		vectorclock.Spec(vectorclock.DefaultConfig()),
		hybrid.Spec(hybrid.Config{}),
		deadlock.Spec(deadlock.Config{}),
		memcheck.Spec(memcheck.Config{}),
		highlevel.Spec(highlevel.Config{}),
	}
}

// TestEngineMultiToolMatchesSequential is the registry determinism contract:
// for a fixed recorded trace, one pass running ALL tools produces output
// byte-identical to running each tool alone over the same trace and merging
// the reports — same warnings, same order, same counts — under all three
// paper configurations. Tools share nothing, and one pass stamps every site
// with the sequence number a one-tool pass would.
func TestEngineMultiToolMatchesSequential(t *testing.T) {
	log, v := recordSIP(t)
	for name, cfg := range paperConfigs() {
		all, events := replayOne(t, log, engine.Options{Tools: allToolSpecs(cfg), Resolver: v})
		toolsSeen := map[string]bool{}
		for _, w := range all.Sites() {
			toolsSeen[w.Tool] = true
		}
		if len(toolsSeen) < 3 {
			t.Fatalf("%s: only %d tool(s) warned (%v); multi-tool test workload is too tame",
				name, len(toolsSeen), toolsSeen)
		}
		var alone []*report.Collector
		for _, spec := range allToolSpecs(cfg) {
			col, n := replayOne(t, log, engine.Options{Tools: []trace.ToolSpec{spec}, Resolver: v})
			if n != events {
				t.Errorf("%s/%s: dispatched %d events, the one-pass run %d", name, spec.Name, n, events)
			}
			alone = append(alone, col)
		}
		merged := report.Merge(v, nil, alone...)
		if got, want := all.Format(), merged.Format(); got != want {
			t.Errorf("%s: one-pass output differs from the merged one-tool runs\n--- one tool at a time ---\n%s\n--- one pass ---\n%s",
				name, want, got)
		}
		if all.Occurrences() != merged.Occurrences() {
			t.Errorf("%s: occurrences = %d, one tool at a time = %d", name, all.Occurrences(), merged.Occurrences())
		}
	}
}

// TestEngineLiveMultiToolMatchesOffline attaches the full registry to a live
// VM (alongside a recorder) and checks that the live run and an offline
// replay of the recording agree byte for byte.
func TestEngineLiveMultiToolMatchesOffline(t *testing.T) {
	workload := func(main *vm.Thread) {
		v := main.VM()
		m1, m2 := v.NewMutex("A"), v.NewMutex("B")
		gate := v.NewSemaphore("gate", 0)
		blocks := make([]*vm.Block, 6)
		for i := range blocks {
			blocks[i] = main.Alloc(8, "blk")
		}
		a := main.Go("a", func(th *vm.Thread) {
			defer th.Func("workerA", "live.cpp", 10)()
			m1.Lock(th)
			m2.Lock(th)
			blocks[0].Store32(th, 0, 1)
			blocks[1].Store32(th, 4, 1)
			m2.Unlock(th)
			m1.Unlock(th)
			blocks[2].Store32(th, 0, 1) // unlocked: race
			gate.Post(th)
		})
		b := main.Go("b", func(th *vm.Thread) {
			defer th.Func("workerB", "live.cpp", 20)()
			gate.Wait(th)
			m2.Lock(th)
			m1.Lock(th) // ABBA inversion
			blocks[0].Store32(th, 0, 2)
			m1.Unlock(th)
			m2.Unlock(th)
			m2.Lock(th)
			blocks[1].Store32(th, 4, 2) // view split for highlevel
			m2.Unlock(th)
			blocks[2].Store32(th, 0, 2) // unlocked: race
		})
		main.Join(a)
		main.Join(b)
		freed := blocks[5]
		freed.Free(main)
		freed.Load32(main, 0) // use after free for memcheck
	}

	var buf bytes.Buffer
	rec := tracelog.NewRecorder(&buf)
	vLive := vm.New(vm.Options{Seed: 3})
	vLive.AddTool(rec)
	eng, err := engine.NewSequential(engine.Options{Tools: allToolSpecs(lockset.ConfigHWLCDR()), Resolver: vLive})
	if err != nil {
		t.Fatalf("NewSequential: %v", err)
	}
	vLive.AddTool(eng)
	if err := vLive.Run(workload); err != nil {
		t.Fatalf("live run: %v", err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	live, err := eng.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}

	seq, err := engine.NewSequential(engine.Options{Tools: allToolSpecs(lockset.ConfigHWLCDR()), Resolver: vLive})
	if err != nil {
		t.Fatalf("NewSequential: %v", err)
	}
	if _, err := seq.ReplayLog(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("offline replay: %v", err)
	}
	offline, err := seq.Close()
	if err != nil {
		t.Fatalf("offline close: %v", err)
	}
	if live.Locations() == 0 {
		t.Fatal("live multi-tool run found nothing; workload is broken")
	}
	got, want := live.Format(), offline.Format()
	if got != want {
		t.Errorf("live output differs from offline replay\n--- offline ---\n%s\n--- live ---\n%s", want, got)
	}
	for _, tool := range []string{"helgrind", "helgrind-deadlock", "memcheck", "highlevel"} {
		if !strings.Contains(want, "=="+tool+"==") {
			t.Errorf("tool %s produced no warnings; the cross-mode check is weaker than intended", tool)
		}
	}
}

// countingSink records one warning per accessed block — a healthy sibling
// for the panic-isolation test.
type countingSink struct {
	trace.BaseSink
	col trace.Reporter
}

func (c *countingSink) ToolName() string { return "healthy" }

func (c *countingSink) Access(a *trace.Access) {
	c.col.Add(report.Warning{Tool: "healthy", Kind: report.KindRace, Block: a.Block, Stack: a.Stack})
}

// TestEngineSiblingPanicIsolation: a panicking tool must not take down its
// sibling tools — each runs under its own recover. The healthy tool must
// report every block, including those after the panic, and Close must
// surface the panic.
func TestEngineSiblingPanicIsolation(t *testing.T) {
	var buf bytes.Buffer
	rec := tracelog.NewRecorder(&buf)
	const nBlocks = 16
	for b := trace.BlockID(1); b <= nBlocks; b++ {
		rec.Alloc(&trace.Block{ID: b, Base: trace.Addr(0x1000 * uint64(b)), Size: 16, Tag: "t"})
	}
	for b := trace.BlockID(1); b <= nBlocks; b++ {
		rec.Access(&trace.Access{Thread: 1, Seg: 1, Block: b, Size: 4, Kind: trace.Write, Stack: trace.StackID(b)})
	}
	rec.Flush()

	const poison = trace.BlockID(3)
	eng, err := engine.NewSequential(engine.Options{
		Tools: []trace.ToolSpec{
			{Name: "panicky", Routing: trace.RouteBlock, Factory: func(col trace.Reporter) trace.Sink {
				return &panicSink{col: col, poison: poison}
			}},
			{Name: "healthy", Routing: trace.RouteBlock, Factory: func(col trace.Reporter) trace.Sink {
				return &countingSink{col: col}
			}},
		},
	})
	if err != nil {
		t.Fatalf("NewSequential: %v", err)
	}
	if _, err := eng.ReplayLog(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("ReplayLog should survive a panicking tool, got: %v", err)
	}
	merged, err := eng.Close()
	if err == nil {
		t.Fatal("Close must report the tool panic")
	}
	if !strings.Contains(err.Error(), "panicky") {
		t.Errorf("Close error should name the failing tool, got: %v", err)
	}
	healthy := 0
	for _, w := range merged.Sites() {
		if w.Tool == "healthy" {
			healthy++
		}
	}
	if healthy != nBlocks {
		t.Errorf("healthy sibling reported %d blocks, want all %d (siblings must be isolated)", healthy, nBlocks)
	}
}

// TestEngineDuplicateToolNamesRejected: the registry requires distinct
// report names, since they key warning deduplication across collectors.
func TestEngineDuplicateToolNamesRejected(t *testing.T) {
	_, err := engine.NewSequential(engine.Options{
		Tools: []trace.ToolSpec{lockset.Spec(lockset.ConfigHWLC()), lockset.Spec(lockset.ConfigOriginal())},
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate tool names must be rejected, got err=%v", err)
	}
	// Distinct report names make two configurations of one detector legal.
	a, b := lockset.ConfigHWLC(), lockset.ConfigOriginal()
	a.Tool, b.Tool = "hwlc", "original"
	eng, err := engine.NewSequential(engine.Options{Tools: []trace.ToolSpec{lockset.Spec(a), lockset.Spec(b)}})
	if err != nil {
		t.Fatalf("renamed configs should be accepted: %v", err)
	}
	eng.Close()
}
