package engine_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// finishingSink counts its Finish calls and, when explode is set, panics
// there.
type finishingSink struct {
	trace.BaseSink
	finished int
	explode  bool
}

func (f *finishingSink) ToolName() string { return "finishing" }

func (f *finishingSink) Finish() {
	f.finished++
	if f.explode {
		panic("finish bug")
	}
}

// withTool returns the six-tool registry with spec registered in the middle,
// so tools on both sides of it are shown unaffected.
func withTool(spec trace.ToolSpec) []trace.ToolSpec {
	tools := append(scenario.AllTools(), spec)
	tools[3], tools[len(tools)-1] = tools[len(tools)-1], tools[3]
	return tools
}

// bombSink counts the Access and Alloc events it is handed and panics on
// every Access after the first armAt. Its Finish pass only counts.
type bombSink struct {
	trace.BaseSink
	armAt            int
	accesses, allocs int
	finished         int
}

func (b *bombSink) ToolName() string { return "bomb" }

func (b *bombSink) Access(*trace.Access) {
	b.accesses++
	if b.accesses > b.armAt {
		panic("tool bug")
	}
}

func (b *bombSink) Alloc(*trace.Block) { b.allocs++ }

func (b *bombSink) Finish() { b.finished++ }

// TestSequentialIsolatesPanic: the first panic in an event callback disables
// the tool for good. Later events — including ones that would panic again —
// never reach it, its Finish pass does not run, the first error sticks and
// names the tool and the callback, the panic counter moves once, and the
// other tools' report is byte-identical to a run without it.
func TestSequentialIsolatesPanic(t *testing.T) {
	log, v := recordSIP(t)
	events := decodeEvents(t, log)
	const armAt = 100
	// The allocations the tool sees: those before the access that panics.
	wantAllocs, accesses, laterAccesses := 0, 0, 0
	for i := range events {
		switch events[i].Op {
		case tracelog.OpAccess:
			accesses++
			if accesses > armAt+1 {
				laterAccesses++
			}
		case tracelog.OpAlloc:
			if accesses <= armAt {
				wantAllocs++
			}
		}
	}
	if laterAccesses == 0 {
		t.Fatalf("workload has %d accesses, need more than %d", accesses, armAt+1)
	}
	for _, replay := range []bool{false, true} {
		_, want, err := runSequential(t, engine.Options{Tools: scenario.AllTools(), Resolver: v}, events, replay)
		if err != nil {
			t.Fatal(err)
		}
		met := engine.NewMetrics(obs.NewRegistry())
		tools := withTool(trace.ToolSpec{
			Name: "bomb", Routing: trace.RouteSingle,
			Factory: func(trace.Reporter) trace.Sink { return &bombSink{armAt: armAt} },
		})
		seq, got, err := runSequential(t, engine.Options{Tools: tools, Resolver: v, Metrics: met}, events, replay)
		const wantErr = `trace: sink "bomb" panicked in Access: tool bug`
		if err == nil || err.Error() != wantErr {
			t.Errorf("replay=%v: Close error %v, want %q", replay, err, wantErr)
		}
		if got != want {
			t.Errorf("replay=%v: the other tools' report changed:\n--- with the panicking tool ---\n%s--- without ---\n%s", replay, got, want)
		}
		bomb := seq.Tool("bomb").(*bombSink)
		if bomb.accesses != armAt+1 || bomb.allocs != wantAllocs {
			t.Errorf("replay=%v: the tool was handed %d accesses and %d allocs, want %d and %d — none after the panic",
				replay, bomb.accesses, bomb.allocs, armAt+1, wantAllocs)
		}
		if bomb.finished != 0 {
			t.Errorf("replay=%v: Finish ran %d times on a disabled tool, want 0", replay, bomb.finished)
		}
		if n := met.ToolPanics.Value(); n != 1 {
			t.Errorf("replay=%v: tool_panics = %d, want 1", replay, n)
		}
	}
}

// TestSequentialFinishForwards: Close runs the end-of-stream pass of a
// Finisher that does not panic exactly once, a second Close does not run it
// again, and a tool without a Finish method closes without error.
func TestSequentialFinishForwards(t *testing.T) {
	log, v := recordSIP(t)
	events := decodeEvents(t, log)
	_, want, err := runSequential(t, engine.Options{Tools: scenario.AllTools(), Resolver: v}, events, true)
	if err != nil {
		t.Fatal(err)
	}
	met := engine.NewMetrics(obs.NewRegistry())
	tools := append(withTool(trace.ToolSpec{
		Name: "finishing", Routing: trace.RouteSingle,
		Factory: func(trace.Reporter) trace.Sink { return &finishingSink{} },
	}), trace.ToolSpec{
		Name: "plain", Routing: trace.RouteSingle,
		Factory: func(trace.Reporter) trace.Sink { return trace.BaseSink{} },
	})
	seq, got, err := runSequential(t, engine.Options{Tools: tools, Resolver: v, Metrics: met}, events, true)
	if err != nil {
		t.Errorf("Close error %v, want none", err)
	}
	if got != want {
		t.Errorf("the other tools' report changed:\n--- with the finishing tool ---\n%s--- without ---\n%s", got, want)
	}
	if n := seq.Tool("finishing").(*finishingSink).finished; n != 1 {
		t.Errorf("Finish ran %d times, want 1", n)
	}
	if _, err := seq.Close(); err != nil {
		t.Errorf("second Close error %v, want none", err)
	}
	if n := seq.Tool("finishing").(*finishingSink).finished; n != 1 {
		t.Errorf("Finish ran %d times after a second Close, want 1", n)
	}
	if n := met.ToolPanics.Value(); n != 0 {
		t.Errorf("tool_panics = %d, want 0", n)
	}
}

// TestSequentialFinishPanicIsolated: a tool whose end-of-stream pass panics
// leaves the other tools' report byte-identical to a run without it — their
// own Finish passes included — Close names the tool and Finish, the panic
// counter moves once, and a second Close runs no Finish again.
func TestSequentialFinishPanicIsolated(t *testing.T) {
	log, v := recordSIP(t)
	events := decodeEvents(t, log)
	_, want, err := runSequential(t, engine.Options{Tools: scenario.AllTools(), Resolver: v}, events, true)
	if err != nil {
		t.Fatal(err)
	}
	met := engine.NewMetrics(obs.NewRegistry())
	tools := withTool(trace.ToolSpec{
		Name: "finishing", Routing: trace.RouteSingle,
		Factory: func(trace.Reporter) trace.Sink { return &finishingSink{explode: true} },
	})
	seq, got, err := runSequential(t, engine.Options{Tools: tools, Resolver: v, Metrics: met}, events, true)
	if got != want {
		t.Errorf("the other tools' report changed:\n--- with the finishing tool ---\n%s--- without ---\n%s", got, want)
	}
	const wantErr = `trace: sink "finishing" panicked in Finish: finish bug`
	if err == nil || err.Error() != wantErr {
		t.Errorf("Close error %v, want %q", err, wantErr)
	}
	if n := met.ToolPanics.Value(); n != 1 {
		t.Errorf("tool_panics = %d, want 1", n)
	}
	seq.Close()
	if n := seq.Tool("finishing").(*finishingSink).finished; n != 1 {
		t.Errorf("Finish ran %d times, want 1", n)
	}
}

// TestSequentialNilSinkInert: a factory that returns nil registers a tool
// that stays inert — no event reaches it, Close reports no error for it, it
// has no summary — and the other tools' report is unaffected.
func TestSequentialNilSinkInert(t *testing.T) {
	log, v := recordSIP(t)
	events := decodeEvents(t, log)
	for _, replay := range []bool{false, true} {
		_, want, err := runSequential(t, engine.Options{Tools: scenario.AllTools(), Resolver: v}, events, replay)
		if err != nil {
			t.Fatal(err)
		}
		met := engine.NewMetrics(obs.NewRegistry())
		tools := withTool(trace.ToolSpec{
			Name: "absent", Routing: trace.RouteBlock,
			Factory: func(trace.Reporter) trace.Sink { return nil },
		})
		seq, got, err := runSequential(t, engine.Options{Tools: tools, Resolver: v, Metrics: met}, events, replay)
		if err != nil {
			t.Errorf("replay=%v: Close error %v, want none from a nil sink", replay, err)
		}
		if got != want {
			t.Errorf("replay=%v: the other tools' report changed:\n--- with the nil sink ---\n%s--- without ---\n%s", replay, got, want)
		}
		if seq.Tool("absent") != nil {
			t.Errorf("replay=%v: Tool(absent) = %v, want nil", replay, seq.Tool("absent"))
		}
		if _, ok := seq.Summaries()["absent"]; ok {
			t.Errorf("replay=%v: the nil sink has a summary", replay)
		}
		if n := met.ToolPanics.Value(); n != 0 {
			t.Errorf("replay=%v: tool_panics = %d, want 0", replay, n)
		}
	}
}

// TestToolTimes: ToolTimes is nil until Close; after it, it holds exactly
// the registered tool names, each with time spent on a non-empty stream.
func TestToolTimes(t *testing.T) {
	log, v := recordSIP(t)
	tools := scenario.AllTools()
	seq, err := engine.NewSequential(engine.Options{Tools: tools, Resolver: v})
	if err != nil {
		t.Fatal(err)
	}
	if got := seq.ToolTimes(); got != nil {
		t.Errorf("ToolTimes before any event = %v, want nil", got)
	}
	if _, err := seq.ReplayLog(bytes.NewReader(log)); err != nil {
		t.Fatal(err)
	}
	if got := seq.ToolTimes(); got != nil {
		t.Errorf("ToolTimes before Close = %v, want nil", got)
	}
	if _, err := seq.Close(); err != nil {
		t.Fatal(err)
	}
	times := seq.ToolTimes()
	var names, want []string
	for name, ns := range times {
		names = append(names, name)
		if ns <= 0 {
			t.Errorf("tool %s: %d ns over %d events, want > 0", name, ns, seq.Events())
		}
	}
	for _, spec := range tools {
		want = append(want, spec.Name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("ToolTimes names = %v, want the registry %v", names, want)
	}
}

// TestSequentialKeep: a Keep filter gives the report of a run over only the
// kept events, on the ReplayLog and the Sink-method path alike. Dropped
// events get no sequence number — Events() and events_decoded count the
// kept ones — while ReplayLog still returns what the stream carried, and the
// filter sees every event once, in stream order.
func TestSequentialKeep(t *testing.T) {
	log, v := recordSIP(t)
	events := decodeEvents(t, log)
	dropOdd := func(ev *tracelog.Event) bool { return ev.Op != tracelog.OpAccess || ev.Access.Block%2 == 0 }
	var kept []tracelog.Event
	for i := range events {
		if dropOdd(&events[i]) {
			kept = append(kept, events[i])
		}
	}
	if len(kept) == len(events) {
		t.Fatal("the filter drops nothing; the workload is too tame")
	}
	for _, replay := range []bool{false, true} {
		_, want, err := runSequential(t, engine.Options{Tools: scenario.AllTools(), Resolver: v}, kept, replay)
		if err != nil {
			t.Fatal(err)
		}
		met := engine.NewMetrics(obs.NewRegistry())
		var seen []tracelog.Op
		keep := func(ev *tracelog.Event) bool {
			seen = append(seen, ev.Op)
			return dropOdd(ev)
		}
		seq, err := engine.NewSequential(engine.Options{Tools: scenario.AllTools(), Resolver: v, Metrics: met, Keep: keep})
		if err != nil {
			t.Fatal(err)
		}
		if replay {
			if n, err := seq.ReplayLog(bytes.NewReader(log)); err != nil || n != int64(len(events)) {
				t.Errorf("ReplayLog = %d, %v; want the %d events the stream carried", n, err, len(events))
			}
		} else {
			for i := range events {
				events[i].Deliver(seq)
			}
		}
		col, err := seq.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := col.Format(); got != want {
			t.Errorf("replay=%v: filtered report differs from a run over the kept events:\n--- filtered ---\n%s--- kept only ---\n%s", replay, got, want)
		}
		if seq.Events() != int64(len(kept)) || met.EventsDecoded.Value() != int64(len(kept)) {
			t.Errorf("replay=%v: Events() = %d, events_decoded = %d, want the %d kept", replay, seq.Events(), met.EventsDecoded.Value(), len(kept))
		}
		if len(seen) != len(events) {
			t.Fatalf("replay=%v: Keep saw %d events, want %d", replay, len(seen), len(events))
		}
		for i := range events {
			if seen[i] != events[i].Op {
				t.Fatalf("replay=%v: Keep saw event %d as %s, want %s", replay, i, seen[i], events[i].Op)
			}
		}
	}
}
