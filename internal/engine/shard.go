package engine

import (
	"sync"
	"time"

	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// toolInst is one live tool instance: a sink behind its panic isolator and a
// private collector stamping sites with the owning worker's current global
// sequence number. Block-routed tools have one per shard; pinned tools have
// exactly one, homed on one shard. cur points at the owning worker's
// sequence counter (shard.cur, or Sequential.cur), which the worker updates
// before delivering each event on its own goroutine — the same goroutine the
// collector's sequencer then reads it from. A shard worker delivers through
// the SafeSink; Sequential delivers a batch to the unwrapped tool under one
// recover of its own and reports a panic to the SafeSink (Absorb), which
// keeps the disabled flag and the error either way.
type toolInst struct {
	name string
	col  *report.Collector
	sink *trace.SafeSink
	cur  *uint64
	ns   int64 // time inside handlers, accumulated when Options.ToolTime is on
}

func newToolInst(spec trace.ToolSpec, opt Options, cur *uint64) *toolInst {
	col := report.NewCollector(opt.Resolver, opt.Suppressor)
	col.SetSequencer(func() uint64 { return *cur })
	// The SafeSink isolates a panicking tool to this one instance: the
	// worker keeps draining its channel and sibling tools on the same
	// shard keep analysing; the panic surfaces as an error from Close.
	ss := trace.NewSafeSink(spec.Factory(col))
	if opt.Metrics != nil {
		ss.OnPanic = opt.Metrics.ToolPanics.Inc
	}
	return &toolInst{
		name: spec.Name,
		col:  col,
		sink: ss,
		cur:  cur,
	}
}

// shard is one worker: a bounded batch channel and the tool instances homed
// here. Everything behind the channel is touched only by the worker
// goroutine until Close has joined it.
type shard struct {
	id          int
	ch          chan *batch
	pending     *batch // dispatcher-side partial batch
	sharded     []*toolInst
	pinnedBcast []*toolInst // RouteBroadcast instances homed here
	pinnedFull  []*toolInst // RouteSingle instances homed here
	cur         uint64      // global sequence of the event being processed
	events      int64
	timed       bool // Options.ToolTime: bracket deliveries with clock reads
	done        chan struct{}

	// Snapshot barrier plumbing, shared across all shards of one Engine: a
	// nil batch on ch is the quiesce marker (see Engine.Snapshot).
	snapWG   *sync.WaitGroup
	snapGate <-chan struct{}
}

func newShard(id int, opt Options, b *batch) *shard {
	return &shard{
		id:      id,
		ch:      make(chan *batch, opt.QueueDepth),
		pending: b,
		timed:   opt.ToolTime,
		done:    make(chan struct{}),
	}
}

// deliverAll hands the event to each instance, optionally attributing the
// handler time to it. The timed branch is kept out of the common path: two
// clock reads per (event, instance) are noticeable, and the flag is an
// explicit attribution request.
func deliverAll(insts []*toolInst, ev *event, timed bool) {
	if !timed {
		for _, ti := range insts {
			ev.Deliver(ti.sink)
		}
		return
	}
	for _, ti := range insts {
		t0 := time.Now()
		ev.Deliver(ti.sink)
		ti.ns += time.Since(t0).Nanoseconds()
	}
}

// blockOp reports whether the opcode names a heap block — the events that
// are partitioned rather than broadcast.
func blockOp(op tracelog.Op) bool {
	switch op {
	case tracelog.OpAccess, tracelog.OpAlloc, tracelog.OpFree, tracelog.OpRequest:
		return true
	}
	return false
}

// run is the worker loop. Each event is delivered to the destination groups
// named by its dst bits: block-routed instances see their partition plus all
// broadcasts; pinned broadcast instances see only non-block events; pinned
// single-shard instances see everything addressed here. Batches go back into
// the pool after processing.
func (s *shard) run(pool *sync.Pool) {
	defer close(s.done)
	for b := range s.ch {
		if b == nil {
			// Snapshot barrier: every batch enqueued before it has been fully
			// delivered (the channel is FIFO). Check in, then park until the
			// dispatcher has cloned the instance collectors. The WaitGroup
			// handoff orders this worker's collector writes before the clone;
			// the gate receive orders the clone before any further delivery.
			s.snapWG.Done()
			<-s.snapGate
			continue
		}
		for i := range b.ev {
			ev := &b.ev[i]
			s.cur = ev.seq
			if ev.dst&dstSharded != 0 {
				deliverAll(s.sharded, ev, s.timed)
			}
			if ev.dst&dstPinned != 0 {
				if !blockOp(ev.Op) {
					deliverAll(s.pinnedBcast, ev, s.timed)
				}
				deliverAll(s.pinnedFull, ev, s.timed)
			}
		}
		s.events += int64(len(b.ev))
		pool.Put(b.reset())
	}
}
