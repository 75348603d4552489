package engine_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/lockset"
	"repro/internal/report"
	"repro/internal/sipp"
	"repro/internal/suppress"
	"repro/internal/trace"
	"repro/internal/tracelog"
	"repro/internal/vectorclock"
	"repro/internal/vm"
)

// recordSIP records the racy SIP workload (test case T2 with all seeded
// paper bugs) and returns the binary log plus the recording VM, which acts
// as the stack/block resolver for reports.
func recordSIP(t testing.TB) ([]byte, *vm.VM) {
	t.Helper()
	tc, ok := sipp.CaseByID("T2")
	if !ok {
		t.Fatal("case T2 missing")
	}
	v, log, err := harness.RecordCase(tc, harness.DefaultRunOptions(), true)
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	return log, v
}

// paperConfigs returns the lock-set configuration of each
// harness.PaperConfigs entry, by name.
func paperConfigs() map[string]lockset.Config {
	m := make(map[string]lockset.Config)
	for _, det := range harness.PaperConfigs() {
		m[det.Name] = det.Cfg
	}
	return m
}

// replayOne runs a recorded log through a Sequential over opt's registry and
// returns the merged report and the event count.
func replayOne(t *testing.T, log []byte, opt engine.Options) (*report.Collector, int64) {
	t.Helper()
	seq, err := engine.NewSequential(opt)
	if err != nil {
		t.Fatalf("NewSequential: %v", err)
	}
	events, err := seq.ReplayLog(bytes.NewReader(log))
	if err != nil {
		t.Fatalf("ReplayLog: %v", err)
	}
	merged, err := seq.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	return merged, events
}

// TestEngineMatchesSequentialReplay is the determinism contract: for a fixed
// recorded trace, the pipeline's merged output is byte-identical to a plain
// tracelog.Replay into the bare detector — same warnings, same order, same
// counts — under all three paper configurations.
func TestEngineMatchesSequentialReplay(t *testing.T) {
	log, v := recordSIP(t)
	for name, cfg := range paperConfigs() {
		seqCol := report.NewCollector(v, nil)
		seqDet := lockset.New(cfg, seqCol)
		seqEvents, err := tracelog.Replay(bytes.NewReader(log), seqDet)
		if err != nil {
			t.Fatalf("%s: sequential replay: %v", name, err)
		}
		want := seqCol.Format()
		if seqCol.Locations() == 0 {
			t.Fatalf("%s: sequential replay found no warnings; test workload is broken", name)
		}
		merged, events := replayOne(t, log, engine.Options{Tools: []trace.ToolSpec{lockset.Spec(cfg)}, Resolver: v})
		if events != seqEvents {
			t.Errorf("%s: dispatched %d events, sequential saw %d", name, events, seqEvents)
		}
		if got := merged.Format(); got != want {
			t.Errorf("%s: merged output differs from sequential replay\n--- sequential ---\n%s\n--- merged ---\n%s",
				name, want, got)
		}
		if merged.Locations() != seqCol.Locations() || merged.Occurrences() != seqCol.Occurrences() {
			t.Errorf("%s: locations/occurrences = %d/%d, sequential = %d/%d",
				name, merged.Locations(), merged.Occurrences(), seqCol.Locations(), seqCol.Occurrences())
		}
	}
}

// TestEngineMatchesSequentialDJIT runs the same determinism check with the
// happens-before detector.
func TestEngineMatchesSequentialDJIT(t *testing.T) {
	log, v := recordSIP(t)
	cfg := vectorclock.DefaultConfig()
	seqCol := report.NewCollector(v, nil)
	if _, err := tracelog.Replay(bytes.NewReader(log), vectorclock.New(cfg, seqCol)); err != nil {
		t.Fatalf("sequential replay: %v", err)
	}
	merged, _ := replayOne(t, log, engine.Options{Tools: []trace.ToolSpec{vectorclock.Spec(cfg)}, Resolver: v})
	if got, want := merged.Format(), seqCol.Format(); got != want {
		t.Errorf("djit: merged output differs from sequential replay")
	}
}

// TestEngineSuppressions checks that suppression in the pipeline's
// collectors matches a plain collector, including the suppressed-occurrence
// count in the report trailer.
func TestEngineSuppressions(t *testing.T) {
	log, v := recordSIP(t)
	const rules = `
{
   any-destructor
   Helgrind:Race
   fun:*::~*
   ...
}
`
	sup, err := suppress.ParseString(rules)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	cfg := lockset.ConfigOriginal()
	seqCol := report.NewCollector(v, sup)
	if _, err := tracelog.Replay(bytes.NewReader(log), lockset.New(cfg, seqCol)); err != nil {
		t.Fatalf("sequential replay: %v", err)
	}
	merged, _ := replayOne(t, log, engine.Options{Tools: []trace.ToolSpec{lockset.Spec(cfg)}, Resolver: v, Suppressor: sup})
	if got, want := merged.Format(), seqCol.Format(); got != want {
		t.Errorf("suppressed merged output differs from sequential\n--- sequential ---\n%s\n--- merged ---\n%s", want, got)
	}
	if seqCol.SuppressedSites() == 0 {
		t.Error("suppression rule matched nothing; test is vacuous")
	}
}

// TestEngineLiveStream attaches the pipeline directly to a running VM (no
// log in between) and compares against the classic online detector.
func TestEngineLiveStream(t *testing.T) {
	workload := func(main *vm.Thread) {
		v := main.VM()
		m := v.NewMutex("m")
		blocks := make([]*vm.Block, 8)
		for i := range blocks {
			blocks[i] = main.Alloc(8, fmt.Sprintf("blk%d", i))
		}
		w := func(t *vm.Thread) {
			defer t.Func("worker", "live.cpp", 10)()
			for i := 0; i < 6; i++ {
				b := blocks[i%len(blocks)]
				t.SetLine(12)
				b.Store32(t, 0, b.Load32(t, 0)+1) // unlocked: race
				m.Lock(t)
				t.SetLine(14)
				b.Store32(t, 4, uint32(i)) // locked
				m.Unlock(t)
			}
		}
		a := main.Go("a", w)
		b := main.Go("b", w)
		main.Join(a)
		main.Join(b)
	}

	cfg := lockset.ConfigHWLCDR()
	vOnline := vm.New(vm.Options{Seed: 7})
	colOnline := report.NewCollector(vOnline, nil)
	vOnline.AddTool(lockset.New(cfg, colOnline))
	if err := vOnline.Run(workload); err != nil {
		t.Fatalf("online run: %v", err)
	}

	vLive := vm.New(vm.Options{Seed: 7})
	eng, err := engine.NewSequential(engine.Options{Tools: []trace.ToolSpec{lockset.Spec(cfg)}, Resolver: vLive})
	if err != nil {
		t.Fatalf("NewSequential: %v", err)
	}
	vLive.AddTool(eng)
	if err := vLive.Run(workload); err != nil {
		t.Fatalf("live run: %v", err)
	}
	merged, err := eng.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if colOnline.Locations() == 0 {
		t.Fatal("online detector found nothing; workload is broken")
	}
	if got, want := merged.Format(), colOnline.Format(); got != want {
		t.Errorf("live engine output differs from online detector\n--- online ---\n%s\n--- engine ---\n%s", want, got)
	}
}

// panicSink panics the first time it sees an access to the poison block.
type panicSink struct {
	trace.BaseSink
	col    trace.Reporter
	poison trace.BlockID
}

func (p *panicSink) ToolName() string { return "panicky" }

func (p *panicSink) Access(a *trace.Access) {
	if a.Block == p.poison {
		panic("tool bug")
	}
	p.col.Add(report.Warning{Tool: "panicky", Kind: report.KindRace, Block: a.Block, Stack: a.Stack})
}

// TestEnginePanicIsolation: a detector panicking mid-stream must not kill
// the replay; what it reported before the panic survives, it sees nothing
// after, and Close reports the panic as an error.
func TestEnginePanicIsolation(t *testing.T) {
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
	seq, err := engine.NewSequential(engine.Options{Tools: []trace.ToolSpec{{
		Name: "panicky", Routing: trace.RouteBlock,
		Factory: func(col trace.Reporter) trace.Sink { return &panicSink{col: col, poison: poison} },
	}}})
	if err != nil {
		t.Fatalf("NewSequential: %v", err)
	}
	if _, err := seq.ReplayLog(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("ReplayLog should survive a panicking tool, got: %v", err)
	}
	merged, err := seq.Close()
	if err == nil {
		t.Fatal("Close must report the tool panic")
	}
	if want := int(poison) - 1; merged == nil || merged.Locations() != want {
		t.Errorf("merged report = %v, want the %d sites reported before the panic", merged, want)
	}
}

// TestEngineCloseIdempotent: Close of a pipeline that saw no events is
// idempotent, and delivering after Close is safe.
func TestEngineCloseIdempotent(t *testing.T) {
	seq, err := engine.NewSequential(engine.Options{Tools: []trace.ToolSpec{lockset.Spec(lockset.ConfigHWLC())}})
	if err != nil {
		t.Fatalf("NewSequential: %v", err)
	}
	a, errA := seq.Close()
	b, errB := seq.Close()
	if a != b || errA != nil || errB != nil {
		t.Errorf("Close not idempotent: %v %v %v %v", a, b, errA, errB)
	}
	seq.Access(&trace.Access{Thread: 1, Block: 1, Size: 4}) // must not panic
}
