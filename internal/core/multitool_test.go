package core

import (
	"strings"
	"testing"

	"repro/internal/deadlock"
	"repro/internal/highlevel"
	"repro/internal/hybrid"
	"repro/internal/lockset"
	"repro/internal/memcheck"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vectorclock"
	"repro/internal/vm"
)

// fullRegistry is the acceptance configuration: three race detectors and all
// three auxiliary checkers in one registry.
func fullRegistry(cfg lockset.Config) []trace.ToolSpec {
	return []trace.ToolSpec{
		lockset.Spec(cfg),
		vectorclock.Spec(vectorclock.DefaultConfig()),
		hybrid.Spec(hybrid.Config{}),
		deadlock.Spec(deadlock.Config{}),
		memcheck.Spec(memcheck.Config{}),
		highlevel.Spec(highlevel.Config{}),
	}
}

// kitchenSink triggers every tool: an unlocked counter race, an ABBA lock
// inversion, a use-after-free and a lock-granularity view split.
func kitchenSink(main *vm.Thread) {
	v := main.VM()
	m1, m2 := v.NewMutex("A"), v.NewMutex("B")
	gate := v.NewSemaphore("gate", 0)
	counter := main.Alloc(4, "counter")
	pair := main.Alloc(8, "pair")
	a := main.Go("a", func(t *vm.Thread) {
		defer t.Func("workerA", "multi.cpp", 10)()
		m1.Lock(t)
		m2.Lock(t)
		pair.Store32(t, 0, 1)
		pair.Store32(t, 4, 1)
		m2.Unlock(t)
		m1.Unlock(t)
		counter.Store32(t, 0, counter.Load32(t, 0)+1)
		gate.Post(t)
	})
	b := main.Go("b", func(t *vm.Thread) {
		defer t.Func("workerB", "multi.cpp", 20)()
		counter.Store32(t, 0, 7) // pre-gate: unordered with a's accesses
		gate.Wait(t)
		m2.Lock(t)
		m1.Lock(t) // ABBA inversion
		pair.Store32(t, 0, 2)
		m1.Unlock(t)
		m2.Unlock(t)
		m2.Lock(t)
		m1.Lock(t)
		pair.Store32(t, 4, 2) // second half in a separate critical section
		m1.Unlock(t)
		m2.Unlock(t)
		counter.Store32(t, 0, counter.Load32(t, 0)+1)
	})
	main.Join(a)
	main.Join(b)
	stale := main.Alloc(8, "stale")
	stale.Free(main)
	stale.Load32(main, 0) // use after free
}

// TestRunMultiToolDeterminism is the acceptance criterion: a single core.Run
// executes lockset + DJIT + hybrid + deadlock + memcheck + highlevel over one
// pass of the stream, every tool reports, and a second run with the same seed
// produces a byte-identical merged report — under all three paper
// configurations.
func TestRunMultiToolDeterminism(t *testing.T) {
	for name, cfg := range map[string]lockset.Config{
		"Original": lockset.ConfigOriginal(),
		"HWLC":     lockset.ConfigHWLC(),
		"HWLC+DR":  lockset.ConfigHWLCDR(),
	} {
		seq, err := Run(Options{Seed: 5, Tools: fullRegistry(cfg)}, kitchenSink)
		if err != nil || seq.Err != nil {
			t.Fatalf("%s sequential: %v / %v", name, err, seq.Err)
		}
		want := seq.Report()
		toolsSeen := map[string]bool{}
		for _, w := range seq.Collector.Sites() {
			toolsSeen[w.Tool] = true
		}
		for _, tool := range []string{"djit", "helgrind-deadlock", "memcheck", "highlevel"} {
			if !toolsSeen[tool] {
				t.Errorf("%s: tool %s reported nothing; kitchenSink no longer exercises it", name, tool)
			}
		}
		again, err := Run(Options{Seed: 5, Tools: fullRegistry(cfg)}, kitchenSink)
		if err != nil || again.Err != nil {
			t.Fatalf("%s second run: %v / %v", name, err, again.Err)
		}
		if got := again.Report(); got != want {
			t.Errorf("%s: second run's report differs\n--- first ---\n%s\n--- second ---\n%s", name, want, got)
		}
	}
}

// TestRunMultiToolDetectorPointers: every detector instance of a full
// registry run stays reachable for its dynamic counters.
func TestRunMultiToolDetectorPointers(t *testing.T) {
	seq, err := Run(Options{Seed: 5, Tools: fullRegistry(lockset.ConfigHWLCDR())}, kitchenSink)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if seq.LocksetDetector == nil || seq.DeadlockDetector == nil || seq.MemcheckDetector == nil || seq.HighLevelDetector == nil {
		t.Error("sequential run must surface every single-instance detector")
	}
	if seq.DeadlockDetector.Cycles() == 0 {
		t.Error("ABBA inversion not counted by the deadlock detector")
	}
	if seq.MemcheckDetector.Errors() == 0 {
		t.Error("use-after-free not counted by memcheck")
	}
	if seq.HighLevelDetector.Violations() == 0 {
		t.Error("view split not counted by the view-consistency checker")
	}
}

// TestRunLocksetDefaultingIsExplicit is the regression test for the fragile
// zero-value detection: only the exact zero lockset.Config defaults to
// HWLC+DR. A config that sets ANY field — even one that leaves Bus, Mask and
// Destruct zero — is intentional and must not be clobbered.
func TestRunLocksetDefaultingIsExplicit(t *testing.T) {
	res, err := Run(Options{Seed: 1}, racyProgram)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := res.LocksetDetector.Config()
	if got.Bus != lockset.BusRWLock || !got.Destruct {
		t.Errorf("zero config must default to HWLC+DR, got %+v", got)
	}

	// All-zero except ThreadSegments: previously clobbered to HWLC+DR
	// because Bus==BusNone && Mask==0 && !Destruct matched.
	res, err = Run(Options{Seed: 1, Lockset: lockset.Config{ThreadSegments: true}}, racyProgram)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got = res.LocksetDetector.Config()
	if got.Bus != lockset.BusNone || got.Destruct {
		t.Errorf("explicit BusNone config was clobbered to %+v", got)
	}

	// Same for a config expressing only a custom tool name.
	res, err = Run(Options{Seed: 1, Lockset: lockset.Config{Tool: "bare"}}, racyProgram)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := res.LocksetDetector.Config(); got.Bus != lockset.BusNone || got.Tool != "bare" {
		t.Errorf("named minimal config was clobbered to %+v", got)
	}
}

// TestRunDJITDefaultingIsExplicit mirrors the lockset regression test for the
// happens-before detector: only the exact zero vectorclock.Config defaults to
// standard DJIT. A partial config — LockEdges off, a custom granule — is
// intentional and must not be clobbered to DefaultConfig.
func TestRunDJITDefaultingIsExplicit(t *testing.T) {
	djitOf := func(opt Options) vectorclock.Config {
		spec := withTools(t, opt, "djit").Tools[0]
		det, ok := spec.Factory(report.NewCollector(nil, nil)).(*vectorclock.Detector)
		if !ok {
			t.Fatalf("djit spec factory built a %T, want *vectorclock.Detector", det)
		}
		return det.Config()
	}
	if got := djitOf(Options{}); !got.LockEdges || !got.FirstRaceOnly {
		t.Errorf("zero config must default to standard DJIT, got %+v", got)
	}
	// Granule set, Tool empty, LockEdges false: previously clobbered to
	// DefaultConfig because Tool=="" && !LockEdges matched.
	if got := djitOf(Options{DJIT: vectorclock.Config{Granule: 8}}); got.LockEdges || got.FirstRaceOnly || got.Granule != 8 {
		t.Errorf("explicit lock-edge-free config was clobbered to %+v", got)
	}
	if got := djitOf(Options{DJIT: vectorclock.Config{Edges: trace.MaskHelgrind}}); got.LockEdges || got.Edges != trace.MaskHelgrind {
		t.Errorf("explicit edge-mask config was clobbered to %+v", got)
	}
}

func TestParseTools(t *testing.T) {
	specs, err := Options{}.ParseTools("all")
	if err != nil {
		t.Fatalf("ParseTools(all): %v", err)
	}
	if len(specs) != len(ToolNames) {
		t.Errorf("all = %d specs, want %d", len(specs), len(ToolNames))
	}
	specs, err = Options{}.ParseTools("lockset, deadlock")
	if err != nil || len(specs) != 2 {
		t.Fatalf("two-tool parse: %v, %d specs", err, len(specs))
	}
	if specs[0].Routing != trace.RouteBlock || specs[1].Routing != trace.RouteBroadcast {
		t.Errorf("routing classes wrong: %v %v", specs[0].Routing, specs[1].Routing)
	}
	if _, err := (Options{}).ParseTools("lockset,bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown tool must be rejected with its name, got %v", err)
	}
	// The lockset spec honours the receiver's configuration.
	specs, err = Options{Lockset: lockset.ConfigOriginal()}.ParseTools("lockset")
	if err != nil {
		t.Fatalf("ParseTools: %v", err)
	}
	if specs[0].Name != "helgrind" {
		t.Errorf("lockset spec name = %q", specs[0].Name)
	}
}
