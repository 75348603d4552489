package engine_test

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// poisonThread marks the event a poisonTool panics on.
const poisonThread trace.ThreadID = 7777

// poisonTool counts the events it is handed and panics on the one that names
// poisonThread — whichever callback that event arrives through.
type poisonTool struct{ seen int }

func (p *poisonTool) on(t trace.ThreadID) {
	p.seen++
	if t == poisonThread {
		panic("poisoned")
	}
}

func (p *poisonTool) ToolName() string                                       { return "panicky" }
func (p *poisonTool) Access(a *trace.Access)                                 { p.on(a.Thread) }
func (p *poisonTool) Alloc(b *trace.Block)                                   { p.on(b.Thread) }
func (p *poisonTool) Segment(ss *trace.SegmentStart)                         { p.on(ss.Thread) }
func (p *poisonTool) Sync(ev *trace.SyncEvent)                               { p.on(ev.Thread) }
func (p *poisonTool) Request(r *trace.Request)                               { p.on(r.Thread) }
func (p *poisonTool) ThreadStart(t, _ trace.ThreadID)                        { p.on(t) }
func (p *poisonTool) ThreadExit(t trace.ThreadID)                            { p.on(t) }
func (p *poisonTool) Free(_ *trace.Block, t trace.ThreadID, _ trace.StackID) { p.on(t) }
func (p *poisonTool) Contended(t trace.ThreadID, _ trace.LockID, _ trace.StackID) {
	p.on(t)
}
func (p *poisonTool) Acquire(t trace.ThreadID, _ trace.LockID, _ trace.LockKind, _ trace.StackID) {
	p.on(t)
}
func (p *poisonTool) Release(t trace.ThreadID, _ trace.LockID, _ trace.LockKind, _ trace.StackID) {
	p.on(t)
}

// poisonEvent is an event of the given kind that names poisonThread and
// nothing else the stream knows: a block, a lock and a segment of its own.
func poisonEvent(op tracelog.Op) tracelog.Event {
	const id = 1 << 20
	return tracelog.Event{
		Op:      op,
		Thread:  poisonThread,
		Lock:    id,
		Access:  trace.Access{Thread: poisonThread, Seg: id, Block: id, Size: 4},
		Block:   trace.Block{ID: id + 1, Base: 1 << 40, Size: 8, Tag: "poison", Thread: poisonThread},
		Segment: trace.SegmentStart{Seg: id, Thread: poisonThread},
		Sync:    trace.SyncEvent{Op: trace.SemPost, Obj: id, Thread: poisonThread},
		Request: trace.Request{Kind: trace.ReqBenign, Thread: poisonThread, Block: id, Size: 4},
	}
}

// recordEvents encodes the events as a binary log.
func recordEvents(t *testing.T, events []tracelog.Event) []byte {
	t.Helper()
	var log bytes.Buffer
	rec := tracelog.NewRecorder(&log)
	for i := range events {
		events[i].Deliver(rec)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	return log.Bytes()
}

// runSequential feeds the events to a Sequential over the given tools, either
// through its Sink methods or as a recorded log, and closes it.
func runSequential(t *testing.T, opt engine.Options, events []tracelog.Event, replay bool) (*engine.Sequential, string, error) {
	t.Helper()
	seq, err := engine.NewSequential(opt)
	if err != nil {
		t.Fatal(err)
	}
	if replay {
		if n, err := seq.ReplayLog(bytes.NewReader(recordEvents(t, events))); err != nil || n != int64(len(events)) {
			t.Fatalf("ReplayLog: %d events, %v", n, err)
		}
	} else {
		for i := range events {
			events[i].Deliver(seq)
		}
	}
	col, err := seq.Close()
	if col == nil {
		t.Fatalf("Close returned no report: %v", err)
	}
	return seq, col.Format(), err
}

// TestSequentialPanicMidBatch: a tool that panics at event k of a batch — in
// the first, a middle or the last slot, through each of the eleven callbacks,
// on the Sink path and on the ReplayLog path — has seen exactly the events
// before k and none after; the other tools' merged report is byte-identical
// to a run without it; Close names the tool and the callback; the panic
// counter moves once.
func TestSequentialPanicMidBatch(t *testing.T) {
	log, v := recordSIP(t)
	base := decodeEvents(t, log)
	const B = engine.SeqBatchSize
	if len(base) < 3*B {
		t.Fatalf("workload has %d events, need three batches of %d", len(base), B)
	}
	base = base[:3*B]
	for op := tracelog.OpAccess; op <= tracelog.OpThreadExit; op++ {
		for _, slot := range []int{0, B / 2, B - 1} {
			for _, replay := range []bool{false, true} {
				name := fmt.Sprintf("%s/slot%d/replay=%v", op, slot, replay)
				k := B + slot // in the second batch
				events := append(append(append([]tracelog.Event(nil), base[:k]...), poisonEvent(op)), base[k:]...)

				_, want, err := runSequential(t, engine.Options{Tools: scenario.AllTools(), Resolver: v}, events, replay)
				if err != nil {
					t.Fatalf("%s: run without the panicking tool: %v", name, err)
				}
				if want == "" {
					t.Fatalf("%s: empty baseline report; the workload is too tame for this test", name)
				}

				met := engine.NewMetrics(obs.NewRegistry())
				tools := append(scenario.AllTools(), trace.ToolSpec{
					Name: "panicky", Routing: trace.RouteSingle,
					Factory: func(trace.Reporter) trace.Sink { return &poisonTool{} },
				})
				// Registered in the middle, so tools on both sides of it are shown unaffected.
				tools[3], tools[len(tools)-1] = tools[len(tools)-1], tools[3]
				seq, got, err := runSequential(t, engine.Options{Tools: tools, Resolver: v, Metrics: met}, events, replay)
				if err == nil || !strings.Contains(err.Error(), `"panicky" panicked in `+op.String()+":") {
					t.Errorf("%s: Close error %v, want the panic of \"panicky\" in %s", name, err, op)
				}
				if got != want {
					t.Errorf("%s: the other tools' report changed:\n--- with the panicking tool ---\n%s--- without ---\n%s", name, got, want)
				}
				if seen := seq.Tool("panicky").(*poisonTool).seen; seen != k+1 {
					t.Errorf("%s: the tool was handed %d events, want the %d before the panic and the one that caused it", name, seen, k)
				}
				if n := met.ToolPanics.Value(); n != 1 {
					t.Errorf("%s: tool_panics = %d, want 1", name, n)
				}
				if n := met.EventsDecoded.Value(); n != int64(len(events)) {
					t.Errorf("%s: events_decoded = %d, want %d", name, n, len(events))
				}
			}
		}
	}
}

// TestSequentialSnapshotMidBatch: a Snapshot that finds the batch partly
// filled (events arriving through the Sink methods) delivers it first — the
// snapshot equals that of a fresh run over the same prefix, Events() is exact
// before and after, and the final report is the one of a snapshot-free run.
// Delivering after Close stays a no-op.
func TestSequentialSnapshotMidBatch(t *testing.T) {
	log, v := recordSIP(t)
	events := decodeEvents(t, log)
	const B = engine.SeqBatchSize
	opt := engine.Options{Tools: scenario.AllTools(), Resolver: v}
	_, want, err := runSequential(t, opt, events, false)
	if err != nil {
		t.Fatal(err)
	}

	points := []int{1, B - 1, B, B + 1, 2*B + 17, len(events) - 1}
	seq, err := engine.NewSequential(opt)
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	for _, p := range points {
		for ; sent < p; sent++ {
			events[sent].Deliver(seq)
		}
		if seq.Events() != int64(p) {
			t.Fatalf("Events() = %d before the snapshot at %d", seq.Events(), p)
		}
		snap, err := seq.Snapshot()
		if err != nil {
			t.Fatalf("snapshot at %d: %v", p, err)
		}
		if seq.Events() != int64(p) {
			t.Fatalf("Events() = %d after the snapshot at %d", seq.Events(), p)
		}
		// The fresh run replays the prefix as a log, which leaves nothing
		// gathered: its snapshot does not depend on what is under test here.
		fresh, err := engine.NewSequential(opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.ReplayLog(bytes.NewReader(recordEvents(t, events[:p]))); err != nil {
			t.Fatal(err)
		}
		freshSnap, err := fresh.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := snap.Format(), freshSnap.Format(); got != want {
			t.Errorf("snapshot at %d differs from a fresh run over the prefix:\n--- interleaved ---\n%s--- fresh ---\n%s", p, got, want)
		}
		fresh.Close()
	}
	for ; sent < len(events); sent++ {
		events[sent].Deliver(seq)
	}
	col, err := seq.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := col.Format(); got != want {
		t.Errorf("final report differs after %d snapshots:\n--- with snapshots ---\n%s--- without ---\n%s", len(points), got, want)
	}

	events[0].Deliver(seq)
	if n, err := seq.ReplayLog(bytes.NewReader(log)); err != nil || n != int64(len(events)) {
		t.Errorf("ReplayLog after Close: %d events, %v; want the log counted and nothing delivered", n, err)
	}
	if seq.Events() != int64(len(events)) {
		t.Errorf("Events() = %d after delivering to a closed pipeline, want %d", seq.Events(), len(events))
	}
	if again, _ := seq.Close(); again.Format() != want {
		t.Error("the report changed after delivering to a closed pipeline")
	}
}

// TestReplayLogPoolHit is the allocation gate of the pooled hot-path
// buffers: once one session has run, a session's ReplayLog allocates nothing
// — no batch buffer, no read window, no block table, no block slab — so a
// session that replays costs exactly the allocations of one that is only
// constructed and closed.
func TestReplayLogPoolHit(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items at random")
	}
	log, _ := recordSIP(t)
	r := bytes.NewReader(nil)
	session := func(replay bool) func() {
		return func() {
			seq, err := engine.NewSequential(engine.Options{Tools: nopSpecs()})
			if err != nil {
				t.Fatal(err)
			}
			if replay {
				r.Reset(log)
				if _, err := seq.ReplayLog(r); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := seq.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pools
	session(true)()                                  // the first session fills them
	idle := testing.AllocsPerRun(10, session(false))
	replaying := testing.AllocsPerRun(10, session(true))
	if replaying != idle {
		t.Errorf("a replaying session makes %.0f allocations, an idle one %.0f: ReplayLog missed a pool", replaying, idle)
	}
}
