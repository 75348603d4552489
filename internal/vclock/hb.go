package vclock

import "repro/internal/trace"

// HB is the happens-before core of the DJIT, hybrid and lock-set detectors:
// one vector clock per thread, advanced by the synchronisation events of the
// stream. Thread create and join always order; release->acquire on locks
// orders when LockEdges is set; queue, condition and semaphore operations
// order when Edges has their kind.
//
// SegmentBefore orders thread segments (Fig. 2) for the lock-set detector,
// which feeds HB only ThreadStart and Segment: lock edges would order every
// lock-protected handoff and so hide the lock-discipline violations lock-sets
// exist to find, and the VM already carries each queue/cond/sem operation as
// a segment edge, so Sync events would add no segment ordering.
//
// All per-ID state lives in flat slices behind dense remappers (threads,
// locks, condition/semaphore objects, segments), and clock components are
// indexed by dense thread number, so clocks stay as short as the thread
// count. Lock and message clocks recycle their arrays instead of cloning
// fresh ones.
//
// HB implements the synchronisation callbacks of trace.Sink; DJIT and the
// hybrid embed it and add Access and their shadow memory.
type HB struct {
	trace.BaseSink
	// Edges selects which synchronisation edges establish happens-before.
	// Program, Create and Join are always honoured.
	Edges trace.EdgeMask
	// LockEdges enables release->acquire edges on mutexes and rwlocks.
	LockEdges bool

	thIx    trace.Dense
	lkIx    trace.Dense
	syIx    trace.Dense
	segIx   trace.Dense
	threads []VC
	locks   []VC
	syncs   []VC
	segs    []VC    // clocks captured at segment starts
	segTh   []int32 // dense thread index of each segment in segs
	msgs    map[int64]VC
	pool    []VC // retired message clocks, reused on the next put
}

// Thread returns the dense index of thread t, initialising its clock (one
// self-tick) on first sight. Thread clocks — and every clock derived from
// them — are component-indexed by this dense number, not the raw ThreadID.
func (h *HB) Thread(t trace.ThreadID) int {
	ti := h.thIx.Index(int32(t))
	grow(&h.threads, ti)
	if h.threads[ti] == nil {
		h.threads[ti] = New(ti).Tick(ti)
	}
	return ti
}

// Now returns the current clock of the thread with dense index ti.
func (h *HB) Now(ti int) VC { return h.threads[ti] }

// grow extends *s to cover index i. It writes *s only when it grows, so the
// per-event callers store nothing in the common case.
func grow[T any](s *[]T, i int) {
	for len(*s) <= i {
		var zero T
		*s = append(*s, zero)
	}
}

// ThreadStart implements trace.Sink: the child inherits the parent's clock
// (create edge); both tick.
func (h *HB) ThreadStart(t, parent trace.ThreadID) {
	ti := h.Thread(t)
	if parent != 0 {
		pi := h.Thread(parent)
		h.threads[ti] = h.threads[ti].Join(h.threads[pi])
		h.threads[pi] = h.threads[pi].Tick(pi)
	}
	h.threads[ti] = h.threads[ti].Tick(ti)
}

// Segment implements trace.Sink: join edges, and the queue/cond/sem edges
// Edges selects, fold the source segment's clock into the thread's.
// Program order is implicit and create edges are handled in ThreadStart.
func (h *HB) Segment(ss *trace.SegmentStart) {
	ti := h.Thread(ss.Thread)
	me := h.threads[ti]
	for _, e := range ss.In {
		switch e.Kind {
		case trace.Queue, trace.Cond, trace.Sem:
			if !h.Edges.Has(e.Kind) {
				continue
			}
		case trace.Join:
			// Always honoured.
		default:
			continue
		}
		if si := h.segIx.Lookup(int32(e.From)); si >= 0 && h.segs[si] != nil {
			me = me.Join(h.segs[si])
		}
	}
	me = me.Tick(ti)
	h.threads[ti] = me
	si := h.segIx.Index(int32(ss.Seg))
	grow(&h.segs, si)
	grow(&h.segTh, si)
	h.segs[si] = CopyInto(h.segs[si], me)
	h.segTh[si] = int32(ti)
}

// SegmentBefore reports whether segment a happens-before segment b: b's
// starting clock has seen a's own tick. A segment is not before itself, and
// a segment HB has not seen is ordered with nothing.
func (h *HB) SegmentBefore(a, b trace.SegmentID) bool {
	if a == b {
		return false
	}
	ai, bi := h.segIx.Lookup(int32(a)), h.segIx.Lookup(int32(b))
	if ai < 0 || bi < 0 {
		return false
	}
	th := h.segTh[ai]
	return h.segs[bi].Get(int(th)) >= h.segs[ai][th]
}

// Acquire implements trace.Sink: the lock's clock joins the thread's.
func (h *HB) Acquire(t trace.ThreadID, l trace.LockID, _ trace.LockKind, _ trace.StackID) {
	if !h.LockEdges {
		return
	}
	if li := h.lkIx.Lookup(int32(l)); li >= 0 && h.locks[li] != nil {
		ti := h.Thread(t)
		h.threads[ti] = h.threads[ti].Join(h.locks[li])
	}
}

// Release implements trace.Sink: the lock's clock becomes the releaser's
// (reusing the lock's previous clock storage); the releaser ticks.
func (h *HB) Release(t trace.ThreadID, l trace.LockID, _ trace.LockKind, _ trace.StackID) {
	if !h.LockEdges {
		return
	}
	ti := h.Thread(t)
	li := h.lkIx.Index(int32(l))
	grow(&h.locks, li)
	h.locks[li] = CopyInto(h.locks[li], h.threads[ti])
	h.threads[ti] = h.threads[ti].Tick(ti)
}

// Sync implements trace.Sink: message-precise queue edges (the put clock is
// joined at the matching get), and signal/post -> wait edges through one
// clock per condition or semaphore. Message clocks cycle through a pool: a
// clock retired by a get donates its array to the next put.
func (h *HB) Sync(ev *trace.SyncEvent) {
	var kind trace.EdgeKind
	switch ev.Op {
	case trace.QueuePut, trace.QueueGet:
		kind = trace.Queue
	case trace.CondSignal, trace.CondBroadcast, trace.CondWaitDone:
		kind = trace.Cond
	case trace.SemPost, trace.SemWaitDone:
		kind = trace.Sem
	}
	if !h.Edges.Has(kind) {
		return
	}
	ti := h.Thread(ev.Thread)
	me := &h.threads[ti]
	switch ev.Op {
	case trace.QueuePut:
		var mv VC
		if n := len(h.pool); n > 0 {
			mv = h.pool[n-1]
			h.pool = h.pool[:n-1]
		}
		if h.msgs == nil {
			h.msgs = make(map[int64]VC)
		}
		h.msgs[ev.Msg] = CopyInto(mv, *me)
	case trace.QueueGet:
		if mv, ok := h.msgs[ev.Msg]; ok {
			*me = me.Join(mv)
			delete(h.msgs, ev.Msg)
			h.pool = append(h.pool, mv)
		}
	case trace.CondSignal, trace.CondBroadcast, trace.SemPost:
		si := h.syIx.Index(int32(ev.Obj))
		grow(&h.syncs, si)
		h.syncs[si] = h.syncs[si].Join(*me)
		*me = me.Tick(ti)
	case trace.CondWaitDone, trace.SemWaitDone:
		if si := h.syIx.Lookup(int32(ev.Obj)); si >= 0 && h.syncs[si] != nil {
			*me = me.Join(h.syncs[si])
		}
	}
}
