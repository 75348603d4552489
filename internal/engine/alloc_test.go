package engine_test

import (
	"runtime/debug"
	"testing"

	"repro/internal/engine"
	"repro/internal/harness"
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
// dispatch: the complete six-tool registry — lock-set, DJIT, hybrid,
// deadlock, memcheck, high-level — run end to end over a recorded stream,
// including pipeline construction, detector state growth, end-of-stream
// passes and the merged report. The dense-index/slab/epoch state layout keeps
// the whole run at ≤ 1 allocation per event (the steady-state figure is far
// lower; see the BENCH files — this test pins
// the budget that the CI bench-regression gate also enforces, with the fixed
// costs of a fresh pipeline amortised over only one small trace).
func TestZeroAllocDetectorPath(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments every access; budget enforced by the non-race CI step")
	}
	// The perfbench workload, scaled down: a few thousand events is enough to
	// amortise the fixed pipeline/detector construction the budget includes,
	// where the ~100-event conformance scenarios are not.
	w := harness.PerfWorkload{Threads: 2, Iters: 200, Slots: 16, Blocks: 16, Seed: 1}
	_, log, err := w.RecordTrace()
	if err != nil {
		t.Fatal(err)
	}
	events := decodeEvents(t, log)

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func() {
		seq, err := engine.NewSequential(engine.Options{Tools: scenario.AllTools()})
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
	if perEvent := allocs / float64(len(events)); perEvent > 1.0 {
		t.Errorf("%.3f allocs/event (%.0f allocs per %d-event run), budget 1.0", perEvent, allocs, len(events))
	}
}
