package engine_test

import (
	"runtime/debug"
	"testing"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/lockset"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// nopTool ignores every event — dispatch overhead with zero analysis cost,
// isolating the engine's own allocation behaviour.
type nopTool struct{ trace.BaseSink }

func nopSpecs() []trace.ToolSpec {
	return []trace.ToolSpec{
		{Name: "nop-block", Routing: trace.RouteBlock, Factory: func(trace.Reporter) trace.Sink { return nopTool{} }},
		{Name: "nop-bcast", Routing: trace.RouteBroadcast, Factory: func(trace.Reporter) trace.Sink { return nopTool{} }},
	}
}

// TestZeroAllocDispatch pins the dispatch side: once the batch and its edge
// arena are warmed, pushing a full event stream through the pipeline's Sink
// methods — batching and tool-major delivery — allocates nothing. GC is
// disabled during the measurement so it cannot drain the sync.Pool mid-run.
func TestZeroAllocDispatch(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items at random; budget enforced by the non-race CI step")
	}
	s := scenario.Generate(scenario.GenConfig{Seed: 3})
	_, log, err := scenario.Record(s, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	events := decodeEvents(t, log)

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	seq, err := engine.NewSequential(engine.Options{Tools: nopSpecs()})
	if err != nil {
		t.Fatal(err)
	}
	push := func() {
		for i := range events {
			events[i].Deliver(seq)
		}
	}
	for i := 0; i < 3; i++ { // warm: take the batch, grow its edge arena
		push()
	}
	allocs := testing.AllocsPerRun(10, push)
	if perEvent := allocs / float64(len(events)); perEvent != 0 {
		t.Errorf("%.4f allocs/event (%.1f allocs per %d-event pass), want 0", perEvent, allocs, len(events))
	}
	if _, err := seq.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestZeroAllocDetectorPath budgets the full analysis path, not just
// dispatch: a registry run end to end over a recorded stream, including
// pipeline construction, detector state growth, end-of-stream passes and the
// merged report, with the fixed costs of a fresh pipeline amortised over one
// trace. The dense-index/slab/epoch state layout keeps the complete six-tool
// registry — lock-set, DJIT, hybrid, deadlock, memcheck, high-level — at ≤ 1
// allocation per event even on a small trace, and the lock-set detector
// alone over the §4.5 workload at ≤ 0.01.
func TestZeroAllocDetectorPath(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments every access; budget enforced by the non-race CI step")
	}
	for _, in := range []struct {
		name   string
		w      harness.PerfWorkload
		tools  func() []trace.ToolSpec
		budget float64
	}{
		// The perfbench workload, scaled down: a few thousand events is
		// enough to amortise the fixed pipeline/detector construction the
		// budget includes, where the ~100-event conformance scenarios are not.
		{"all-tools", harness.PerfWorkload{Threads: 2, Iters: 200, Slots: 16, Blocks: 16, Seed: 1}, scenario.AllTools, 1.0},
		// The §4.5 workload at perfbench's replay settings.
		{"lockset-4.5", harness.PerfWorkload{Threads: 4, Iters: 2000, Slots: 64, Blocks: 64, Seed: 1},
			func() []trace.ToolSpec { return []trace.ToolSpec{lockset.Spec(lockset.ConfigHWLCDR())} }, 0.01},
	} {
		t.Run(in.name, func(t *testing.T) {
			_, log, err := in.w.RecordTrace()
			if err != nil {
				t.Fatal(err)
			}
			events := decodeEvents(t, log)

			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			run := func() {
				seq, err := engine.NewSequential(engine.Options{Tools: in.tools()})
				if err != nil {
					t.Fatal(err)
				}
				for i := range events {
					events[i].Deliver(seq)
				}
				if _, err := seq.Close(); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm shared state (interned strings, pooled buffers)
			allocs := testing.AllocsPerRun(5, run)
			perEvent := allocs / float64(len(events))
			if perEvent > in.budget {
				t.Errorf("%.4f allocs/event (%.0f allocs per %d-event run), budget %g", perEvent, allocs, len(events), in.budget)
			}
			t.Logf("%.4f allocs/event (%d events)", perEvent, len(events))
		})
	}
}
