// Package engine is the sharded parallel analysis pipeline: it replays a
// recorded trace — or consumes a live VM event stream — across N CPU cores
// and produces a report set identical to sequential analysis.
//
// Architecture (see also the root doc.go): the engine runs a *tool registry*
// — any number of trace.ToolSpecs, each naming a routing class — over a
// single decode of the event stream, fanned out to N shard workers:
//
//   - The event stream is decoded (or received from the VM) exactly once, on
//     the dispatcher goroutine, and split into per-memory-shard substreams:
//     every event that names a heap block (memory accesses, allocations,
//     frees, client requests) is routed to the shard owning that block
//     (trace.Shard of its BlockID), while synchronisation, segment and
//     thread-lifecycle events are broadcast to all shards.
//   - Block-routed tools (trace.RouteBlock) get one independent instance per
//     shard; pinned tools (trace.RouteBroadcast, trace.RouteSingle) get
//     exactly one instance homed on one shard, with the engine forwarding
//     every block event to the home shards of single-shard tools. Events
//     travel in batches over bounded channels, so a slow shard exerts
//     backpressure on the dispatcher instead of queueing unbounded memory.
//     Instances share nothing and need no locks; each sits behind its own
//     panic-isolating trace.SafeSink, so one buggy tool cannot take down its
//     shard siblings.
//   - Every instance writes to a private report.Collector whose sites are
//     stamped with the global event sequence number of their first
//     occurrence. Close joins the workers, runs end-of-stream passes
//     (trace.Finisher) and merges all collectors deterministically
//     (report.Merge): duplicate sites fold with summed counts and the merged
//     order is the global first-seen order across every tool, so the output
//     does not depend on goroutine scheduling and is byte-identical to what
//     the Sequential pipeline produces from the same stream.
//
// The routing classes and their soundness arguments are documented on
// trace.Routing; every detector package exports a Spec constructor declaring
// its class.
package engine

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// Factory builds one detector instance for one shard, writing warnings to
// the shard's private collector.
//
// Deprecated: configure the engine with Options.Tools instead. Factory
// remains as the single-tool shorthand: a non-nil Factory with empty Tools
// is adapted into one block-routed ToolSpec.
type Factory func(col *report.Collector) trace.Sink

// Options configures an Engine (or a Sequential).
type Options struct {
	// Shards is the number of parallel workers (default: GOMAXPROCS).
	Shards int
	// BatchSize is the number of events per dispatch batch (default 512).
	// Batching amortises channel synchronisation across events.
	BatchSize int
	// QueueDepth is the per-shard channel capacity in batches (default 8).
	// Together with BatchSize it bounds the memory between dispatcher and
	// workers and provides backpressure.
	QueueDepth int
	// Tools is the registry: every listed tool runs concurrently over the
	// single decode of the stream, routed per its spec. Names must be
	// unique. Required unless Factory is set.
	Tools []trace.ToolSpec
	// Factory is the deprecated single-tool constructor; see Factory's doc.
	Factory Factory
	// Resolver resolves stacks and blocks at reporting time; it is handed to
	// every instance collector and to the merged result.
	Resolver trace.Resolver
	// Suppressor applies suppression rules in every instance collector.
	Suppressor report.Suppressor
	// Metrics, when non-nil, receives hot-path instrumentation (events
	// dispatched, batches flushed, queue watermarks, snapshot quiesce
	// latency, absorbed tool panics). Several pipelines may share one
	// Metrics. Instrumentation never influences analysis: reports are
	// byte-identical with or without it.
	Metrics *Metrics
	// ToolTime, when true, measures the wall time spent inside each tool
	// instance's event handlers; ToolTimes returns the totals after Close.
	// The measurement brackets every delivery with two clock reads — per
	// event and instance in the shard workers, per tool and batch in
	// Sequential — so it is off by default and meant for attribution runs
	// (perfbench -tooltime), not steady-state production pipelines. Like
	// Metrics, it never changes analysis output.
	ToolTime bool
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 512
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 8
	}
	if len(o.Tools) == 0 && o.Factory != nil {
		f := o.Factory
		o.Tools = []trace.ToolSpec{{
			Name:    "detector",
			Routing: trace.RouteBlock,
			Factory: func(col trace.Reporter) trace.Sink { return f(col.(*report.Collector)) },
		}}
	}
	return o
}

// validateTools checks the registry invariants shared by Engine and
// Sequential.
func validateTools(tools []trace.ToolSpec) error {
	if len(tools) == 0 {
		return fmt.Errorf("engine: no tools registered (set Options.Tools)")
	}
	seen := make(map[string]bool, len(tools))
	for _, spec := range tools {
		if spec.Factory == nil {
			return fmt.Errorf("engine: tool %q has no Factory", spec.Name)
		}
		if spec.Name == "" {
			return fmt.Errorf("engine: tool with empty Name")
		}
		if seen[spec.Name] {
			return fmt.Errorf("engine: duplicate tool name %q (give each registered tool a distinct report name)", spec.Name)
		}
		seen[spec.Name] = true
		switch spec.Routing {
		case trace.RouteBlock, trace.RouteBroadcast, trace.RouteSingle:
		default:
			// Rejected here, not just in New's placement switch, so a bad
			// spec fails identically whether or not sharding is enabled.
			return fmt.Errorf("engine: tool %q has unknown routing %d", spec.Name, spec.Routing)
		}
	}
	return nil
}

// Delivery destinations within one shard. A broadcast event addresses both
// groups; a block event addresses the owning shard's block-routed instances
// and, separately, the single-shard instances wherever they are homed.
const (
	dstSharded uint8 = 1 << iota // the shard's block-routed instances
	dstPinned                    // the shard's pinned (broadcast/single) instances
)

// event is one dispatched trace event plus its global sequence number and
// destination groups.
type event struct {
	seq uint64
	dst uint8
	tracelog.Event
}

// batch is one pooled unit of dispatch: a slice of events plus the edge
// arena backing their Segment.In slices. The decoder reuses its own edge
// buffer between events (copy-on-retain), so enqueue copies segment edges
// into the batch's arena; the arena travels with the batch, is read by
// exactly one worker, and is recycled with it. Pooling *batch (rather than
// a bare []event) also keeps the pool itself allocation-free: a pointer in
// an interface does not escape the way a slice header does.
type batch struct {
	ev    []event
	edges []trace.SegmentEdge
}

// addEdges copies a segment event's edges into the batch arena and returns
// the batch-owned slice.
func (b *batch) addEdges(in []trace.SegmentEdge) []trace.SegmentEdge {
	return copyEdges(&b.edges, in)
}

// copyEdges appends in to an edge arena and returns the arena-owned copy,
// capacity-limited so nothing appended later is reachable through it. Arena
// growth may move the backing array; slices handed out earlier keep pointing
// at the old array, whose contents are already written and never mutated, so
// they stay valid.
func copyEdges(arena *[]trace.SegmentEdge, in []trace.SegmentEdge) []trace.SegmentEdge {
	start := len(*arena)
	*arena = append(*arena, in...)
	return (*arena)[start:len(*arena):len(*arena)]
}

func (b *batch) reset() *batch {
	b.ev = b.ev[:0]
	b.edges = b.edges[:0]
	return b
}

// Engine fans an event stream out to shard workers. It implements
// trace.Sink, so it can be attached to a live VM with AddTool; recorded
// logs go through ReplayLog. After the stream ends, Close joins the workers
// and returns the merged collector. Engine is not safe for concurrent
// dispatch: all events must come from one goroutine, as both the VM and the
// log decoder guarantee.
type Engine struct {
	opt        Options
	shards     []*shard
	insts      []*toolInst // all instances, in (tool, shard) order
	fullShards []int       // shards hosting at least one RouteSingle instance
	active     []int       // shards hosting any instance (broadcast targets)
	hasSharded bool        // any RouteBlock tool registered
	pool       sync.Pool
	seq        uint64
	closed     bool
	merged     *report.Collector
	err        error
	streamErr  error // first mid-stream failure (e.g. a ReplayLog decode error)

	// Instrumentation (nil-gated). metPending counts events dispatched since
	// the last fold into met.EventsDecoded, so the per-event cost is a plain
	// increment; hwm holds the per-shard queue gauges resolved at New.
	met        *Metrics
	metPending int64
	hwm        []*obs.Gauge

	// Snapshot quiesce machinery (see Snapshot): a nil batch sent down a
	// shard channel is the barrier marker; the worker checks in on snapWG and
	// parks on snapGate until the dispatcher has cloned every collector. The
	// gate is unbuffered: each release is a handoff to a worker that is
	// parked right now, so a fast worker cannot take, at the next snapshot,
	// the token of a sibling still parked at this one.
	snapWG   sync.WaitGroup
	snapGate chan struct{}
}

// New creates an engine and starts its shard workers.
func New(opt Options) (*Engine, error) {
	opt = opt.withDefaults()
	if err := validateTools(opt.Tools); err != nil {
		return nil, err
	}
	e := &Engine{opt: opt, snapGate: make(chan struct{})}
	e.met = opt.Metrics
	e.hwm = shardQueueGauges(opt.Metrics, opt.Shards)
	e.pool.New = func() any { return &batch{ev: make([]event, 0, opt.BatchSize)} }
	e.shards = make([]*shard, opt.Shards)
	for i := range e.shards {
		e.shards[i] = newShard(i, opt, e.newBatch())
		e.shards[i].snapWG = &e.snapWG
		e.shards[i].snapGate = e.snapGate
	}
	// Instantiate the registry: block-routed tools once per shard, pinned
	// tools once each, spread round-robin across shards so several pinned
	// tools do not pile onto one worker.
	pinned := 0
	hasFull := make([]bool, opt.Shards)
	for _, spec := range opt.Tools {
		switch spec.Routing {
		case trace.RouteBlock:
			e.hasSharded = true
			for _, s := range e.shards {
				ti := newToolInst(spec, opt, &s.cur)
				s.sharded = append(s.sharded, ti)
				e.insts = append(e.insts, ti)
			}
		case trace.RouteBroadcast, trace.RouteSingle:
			s := e.shards[pinned%opt.Shards]
			pinned++
			ti := newToolInst(spec, opt, &s.cur)
			if spec.Routing == trace.RouteSingle {
				s.pinnedFull = append(s.pinnedFull, ti)
				hasFull[s.id] = true
			} else {
				s.pinnedBcast = append(s.pinnedBcast, ti)
			}
			e.insts = append(e.insts, ti)
		default:
			return nil, fmt.Errorf("engine: tool %q has unknown routing %d", spec.Name, spec.Routing)
		}
	}
	for i, ok := range hasFull {
		if ok {
			e.fullShards = append(e.fullShards, i)
		}
	}
	// With block-routed tools registered every shard hosts instances; with a
	// pinned-only registry, only home shards do — the rest never need to see
	// an event.
	for _, s := range e.shards {
		if e.hasSharded || len(s.pinnedBcast)+len(s.pinnedFull) > 0 {
			e.active = append(e.active, s.id)
		}
	}
	for _, s := range e.shards {
		go s.run(&e.pool)
	}
	return e, nil
}

// Shards returns the number of shard workers.
func (e *Engine) Shards() int { return len(e.shards) }

// Events returns the number of events dispatched so far.
func (e *Engine) Events() int64 { return int64(e.seq) }

// QueueLoad reports the fullest shard queue as a fraction of its capacity —
// the live backpressure signal behind the ratcheting engine_queue_hwm
// gauges. Reading len() of the batch channels from the dispatching goroutine
// is racy only in the benign direction: a worker draining concurrently makes
// the estimate conservative, never stale-high forever.
func (e *Engine) QueueLoad() float64 {
	var max float64
	for _, s := range e.shards {
		if c := cap(s.ch); c > 0 {
			if l := float64(len(s.ch)) / float64(c); l > max {
				max = l
			}
		}
	}
	return max
}

func (e *Engine) newBatch() *batch {
	return e.pool.Get().(*batch).reset()
}

// dispatch routes one event. Block-carrying events go to the owning shard's
// block-routed instances and to the home shards of single-shard tools;
// everything else is broadcast to all shards for every instance.
// ev.Segment.In is only read during the call (enqueue copies it into each
// destination batch's arena), so the caller — decoder or VM — may reuse the
// slice immediately after dispatch returns.
func (e *Engine) dispatch(ev *tracelog.Event) {
	if e.closed {
		return
	}
	e.seq++
	if e.met != nil {
		e.metPending++
		if e.metPending >= metricsFlushEvery {
			e.met.EventsDecoded.Add(e.metPending)
			e.metPending = 0
		}
	}
	n := len(e.shards)
	var owner int
	switch ev.Op {
	case tracelog.OpAccess:
		owner = trace.Shard(ev.Access.Block, n)
	case tracelog.OpAlloc, tracelog.OpFree:
		owner = trace.Shard(ev.Block.ID, n)
	case tracelog.OpRequest:
		owner = trace.Shard(ev.Request.Block, n)
	default:
		for _, i := range e.active {
			e.enqueue(i, ev, dstSharded|dstPinned)
		}
		return
	}
	if e.hasSharded && len(e.fullShards) == 0 {
		e.enqueue(owner, ev, dstSharded)
		return
	}
	ownerSent := false
	for _, i := range e.fullShards {
		d := dstPinned
		if i == owner && e.hasSharded {
			d |= dstSharded
			ownerSent = true
		}
		e.enqueue(i, ev, d)
	}
	if e.hasSharded && !ownerSent {
		e.enqueue(owner, ev, dstSharded)
	}
}

func (e *Engine) enqueue(i int, ev *tracelog.Event, dst uint8) {
	s := e.shards[i]
	b := s.pending
	b.ev = append(b.ev, event{seq: e.seq, dst: dst, Event: *ev})
	if ev.Op == tracelog.OpSegment {
		// The copied slice header still points at the caller's edge buffer
		// (the decoder's reused scratch, or the VM's event struct); re-point
		// it at a copy in the batch-owned arena before the event crosses the
		// channel.
		b.ev[len(b.ev)-1].Segment.In = b.addEdges(ev.Segment.In)
	}
	if len(b.ev) >= e.opt.BatchSize {
		s.ch <- b
		s.pending = e.newBatch()
		if e.met != nil {
			e.met.BatchesFlushed.Inc()
			e.hwm[i].SetMax(int64(len(s.ch)))
		}
	}
}

// flushMetrics folds the locally-batched event count into the shared
// counter. Called at every snapshot and close boundary so the exported
// series are exact whenever anyone can observe them.
func (e *Engine) flushMetrics() {
	if e.met != nil && e.metPending > 0 {
		e.met.EventsDecoded.Add(e.metPending)
		e.metPending = 0
	}
}

// ReplayLog decodes a recorded binary log once and streams it through the
// shards. It returns the number of events dispatched. Call Close afterwards
// to obtain the merged report.
//
// A decode error (corrupt or truncated log) marks the whole run failed: the
// events dispatched so far analysed only a prefix of the stream, so Close
// will return the error instead of a partial merged report.
func (e *Engine) ReplayLog(r io.Reader) (int64, error) {
	dec := tracelog.AcquireDecoder(r)
	defer dec.Release()
	var ev tracelog.Event
	for {
		err := dec.Next(&ev)
		if err == io.EOF {
			return dec.Events(), nil
		}
		if err != nil {
			e.fail(err)
			return dec.Events(), err
		}
		e.dispatch(&ev)
	}
}

// fail records a mid-stream failure: the analysed events are only a prefix of
// the intended stream, so no merged report may be emitted. The first failure
// sticks; Close reports it.
func (e *Engine) fail(err error) {
	if e.streamErr == nil && err != nil {
		e.streamErr = err
	}
}

// ToolName implements trace.Sink.
func (e *Engine) ToolName() string { return "engine" }

// Access implements trace.Sink.
func (e *Engine) Access(a *trace.Access) {
	e.dispatch(&tracelog.Event{Op: tracelog.OpAccess, Access: *a})
}

// Acquire implements trace.Sink.
func (e *Engine) Acquire(t trace.ThreadID, l trace.LockID, k trace.LockKind, st trace.StackID) {
	e.dispatch(&tracelog.Event{Op: tracelog.OpAcquire, Thread: t, Lock: l, LockKind: k, Stack: st})
}

// Release implements trace.Sink.
func (e *Engine) Release(t trace.ThreadID, l trace.LockID, k trace.LockKind, st trace.StackID) {
	e.dispatch(&tracelog.Event{Op: tracelog.OpRelease, Thread: t, Lock: l, LockKind: k, Stack: st})
}

// Contended implements trace.Sink.
func (e *Engine) Contended(t trace.ThreadID, l trace.LockID, st trace.StackID) {
	e.dispatch(&tracelog.Event{Op: tracelog.OpContended, Thread: t, Lock: l, Stack: st})
}

// Alloc implements trace.Sink.
func (e *Engine) Alloc(b *trace.Block) {
	e.dispatch(&tracelog.Event{Op: tracelog.OpAlloc, Block: *b})
}

// Free implements trace.Sink.
func (e *Engine) Free(b *trace.Block, t trace.ThreadID, st trace.StackID) {
	e.dispatch(&tracelog.Event{Op: tracelog.OpFree, Block: *b, Thread: t, Stack: st})
}

// Segment implements trace.Sink. No up-front copy: enqueue copies the edge
// slice into each destination batch's arena, so the VM may reuse its slice
// as soon as this returns and the live path stays allocation-free.
func (e *Engine) Segment(ss *trace.SegmentStart) {
	e.dispatch(&tracelog.Event{Op: tracelog.OpSegment, Segment: *ss})
}

// Sync implements trace.Sink.
func (e *Engine) Sync(ev *trace.SyncEvent) {
	e.dispatch(&tracelog.Event{Op: tracelog.OpSync, Sync: *ev})
}

// Request implements trace.Sink.
func (e *Engine) Request(r *trace.Request) {
	e.dispatch(&tracelog.Event{Op: tracelog.OpRequest, Request: *r})
}

// ThreadStart implements trace.Sink.
func (e *Engine) ThreadStart(t, parent trace.ThreadID) {
	e.dispatch(&tracelog.Event{Op: tracelog.OpThreadStart, Thread: t, Parent: parent})
}

// ThreadExit implements trace.Sink.
func (e *Engine) ThreadExit(t trace.ThreadID) {
	e.dispatch(&tracelog.Event{Op: tracelog.OpThreadExit, Thread: t})
}

var _ trace.Sink = (*Engine)(nil)
