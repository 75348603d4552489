package engine

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// seqBatchSize is the number of events Sequential gathers before it hands
// them to the tools, about 108 KB of events. Sizes from 128 to 4,096 measured
// within noise of one another, so it is a constant, not an option.
const seqBatchSize = 512

// seqArenaEdges bounds the segment edges a batch gathers from the Sink
// methods before it is delivered early: a stream of segment events with huge
// edge lists fills the arena long before it fills the batch.
const seqArenaEdges = 8 * seqBatchSize

// seqBatch is Sequential's batch buffer. edges is the arena behind the
// Segment.In slices of events that arrived through the Sink methods, whose
// callers reuse their slices; events decoded by ReplayLog keep pointing into
// the decoder's arena, which lives as long as the batch does.
type seqBatch struct {
	ev    [seqBatchSize]tracelog.Event
	edges []trace.SegmentEdge
}

var seqBatchPool = sync.Pool{New: func() any { return new(seqBatch) }}

// Sequential is the single-goroutine counterpart of Engine: the same tool
// registry, the same per-tool collectors with global sequence stamping, the
// same end-of-stream Finisher pass and the same deterministic merge — but
// every event is delivered to every tool on the caller's goroutine, with no
// routing at all. It defines the reference output the sharded engine must
// reproduce byte for byte, and it is what core.Run uses when parallelism is
// off: one pass over the stream feeds all registered tools.
//
// Delivery is batch-major. Events gather in one fixed-size batch buffer —
// ReplayLog decodes straight into it, the trace.Sink methods copy their
// arguments into it — and a full batch is handed to one tool at a time: each
// tool runs over the whole batch under a single recover before the next tool
// sees its first event. Tools share no state, and every collector stamps a
// new site with the sequence number of the event being delivered, so the
// merged report is the one event-major delivery produces. A tool that panics
// is disabled from the panicking event on (it has seen exactly the events
// before it); the other tools are unaffected and Close reports the panic. A
// partly filled batch is delivered by Snapshot and Close, which is also when
// a tool is guaranteed to have seen everything sent so far.
//
// Sequential implements trace.Sink, so it attaches to a live VM with
// AddTool; recorded logs go through ReplayLog. Routing classes are ignored —
// sequentially, every tool simply sees the full ordered stream.
type Sequential struct {
	opt       Options
	insts     []*toolInst
	b         *seqBatch // nil before the first event and after Close
	n         int       // events gathered in b, not yet delivered
	seq       uint64    // events delivered
	cur       uint64    // sequence the collectors stamp with (the event in delivery, or seq+1 in Close)
	closed    bool
	merged    *report.Collector
	err       error
	streamErr error // first mid-stream failure (e.g. a ReplayLog decode error)

	met *Metrics // nil-gated instrumentation
}

// NewSequential creates the single-pass multi-tool pipeline. Shards,
// BatchSize and QueueDepth are ignored; the tool registry rules are the same
// as New's.
func NewSequential(opt Options) (*Sequential, error) {
	opt = opt.withDefaults()
	if err := validateTools(opt.Tools); err != nil {
		return nil, err
	}
	s := &Sequential{opt: opt, met: opt.Metrics}
	for _, spec := range opt.Tools {
		s.insts = append(s.insts, newToolInst(spec, opt, &s.cur))
	}
	return s, nil
}

// Events returns the number of events taken in so far, delivered or still
// gathered in the batch.
func (s *Sequential) Events() int64 { return int64(s.seq) + int64(s.n) }

// QueueLoad is always 0: inline delivery has no dispatch queue to back up.
func (s *Sequential) QueueLoad() float64 { return 0 }

// batch returns the batch buffer, taking one from the pool on first use.
func (s *Sequential) batch() *seqBatch {
	if s.b == nil {
		s.b = seqBatchPool.Get().(*seqBatch)
	}
	return s.b
}

// flush delivers the gathered events tool-major and empties the batch.
func (s *Sequential) flush() {
	if s.n == 0 {
		return
	}
	evs := s.b.ev[:s.n]
	for _, ti := range s.insts {
		s.deliver(ti, evs)
	}
	s.seq += uint64(s.n)
	if s.met != nil {
		s.met.EventsDecoded.Add(int64(s.n))
	}
	s.n = 0
	s.b.edges = s.b.edges[:0]
}

// deliver runs one tool over the batch under one recover. The collectors
// read s.cur when they stamp a new site, so it is set for every event; a
// panic disables the tool at the event it was handling.
func (s *Sequential) deliver(ti *toolInst, evs []tracelog.Event) {
	if ti.sink.Disabled() {
		return
	}
	var t0 time.Time
	if s.opt.ToolTime {
		t0 = time.Now()
	}
	k := 0
	defer func() {
		if r := recover(); r != nil {
			ti.sink.Absorb(evs[k].Op.String(), r)
		}
		if s.opt.ToolTime {
			ti.ns += time.Since(t0).Nanoseconds()
		}
	}()
	sink := ti.sink.Unwrap()
	for k = range evs {
		s.cur = s.seq + uint64(k) + 1
		evs[k].Deliver(sink)
	}
}

// ReplayLog decodes a recorded binary log once, a batch at a time, and
// delivers every event to every tool. Call Close afterwards to obtain the
// merged report.
//
// The decoder reads only between batches (tracelog.Decoder.NextBatch), so a
// Snapshot taken from inside r's Read — the ingest server's snapshot trigger
// — finds every event decoded so far already delivered.
//
// A decode error (corrupt or truncated log) marks the whole run failed, with
// the same contract as Engine.ReplayLog: Close will return the error instead
// of a partial merged report.
func (s *Sequential) ReplayLog(r io.Reader) (int64, error) {
	if s.closed {
		return tracelog.Replay(r) // counts the events; nothing is delivered after Close
	}
	s.flush() // what arrived through the Sink methods comes first
	dec := tracelog.AcquireDecoder(r)
	defer dec.Release()
	b := s.batch()
	for {
		n, err := dec.NextBatch(b.ev[:])
		s.n = n
		s.flush()
		if err == io.EOF {
			return dec.Events(), nil
		}
		if err != nil {
			if s.streamErr == nil {
				s.streamErr = err
			}
			return dec.Events(), err
		}
	}
}

// Close delivers what the batch still holds, runs the end-of-stream passes
// of tools implementing trace.Finisher and merges the per-tool collectors
// deterministically, mirroring Engine.Close — including the error contracts:
// a tool panic still yields the merged collector, while a mid-stream failure
// yields a nil collector and a stable error, never a partial merged report.
// Close is idempotent; delivering events after Close is a no-op.
func (s *Sequential) Close() (*report.Collector, error) {
	if s.closed {
		return s.merged, s.err
	}
	s.flush()
	s.closed = true
	if s.b != nil {
		if cap(s.b.edges) > 2*seqArenaEdges {
			s.b.edges = nil // one stream's outsized arena is not pooled
		}
		seqBatchPool.Put(s.b)
		s.b = nil
	}
	if s.streamErr != nil {
		s.err = fmt.Errorf("engine: stream failed after %d events: %w", s.seq, s.streamErr)
		return nil, s.err
	}
	s.cur = s.seq + 1 // Finish-phase warnings sort after every stream event
	cols := make([]*report.Collector, len(s.insts))
	for i, ti := range s.insts {
		ti.sink.Finish()
		cols[i] = ti.col
		if err := ti.sink.Err(); err != nil && s.err == nil {
			s.err = err
		}
	}
	s.merged = report.Merge(s.opt.Resolver, s.opt.Suppressor, cols...)
	return s.merged, s.err
}

// Summaries returns the per-tool counter rollups of every instance
// implementing trace.Summarizer (see Engine.Summaries — the two surfaces are
// computed identically, so sequential and sharded runs report the same
// totals). Only valid after Close.
func (s *Sequential) Summaries() map[string]trace.ToolSummary {
	if !s.closed || s.streamErr != nil {
		return nil
	}
	return summarize(s.insts)
}

// Tool returns the live instance of the named registered tool (always
// exactly one sequentially), unwrapped from its SafeSink; nil for an
// unknown name. Only valid after Close: until then the instance has not
// seen the events still gathered in the batch.
func (s *Sequential) Tool(name string) []trace.Sink {
	var out []trace.Sink
	for _, ti := range s.insts {
		if ti.name == name {
			out = append(out, ti.sink.Unwrap())
		}
	}
	return out
}

// ToolTimes returns the cumulative wall time spent inside each tool's event
// handlers, keyed by tool name: two clock reads per tool and batch. Nil
// unless Options.ToolTime was set; only valid after Close.
func (s *Sequential) ToolTimes() map[string]int64 {
	if !s.opt.ToolTime || !s.closed {
		return nil
	}
	return toolTimes(s.insts)
}

// slot returns the batch slot for an event arriving through a Sink method,
// delivering a full batch first; nil after Close.
func (s *Sequential) slot(op tracelog.Op) *tracelog.Event {
	if s.closed {
		return nil
	}
	b := s.batch()
	if s.n == len(b.ev) || len(b.edges) >= seqArenaEdges {
		s.flush()
	}
	ev := &b.ev[s.n]
	s.n++
	ev.Op = op
	return ev
}

// ToolName implements trace.Sink.
func (s *Sequential) ToolName() string { return "engine-sequential" }

// Access implements trace.Sink.
func (s *Sequential) Access(a *trace.Access) {
	if ev := s.slot(tracelog.OpAccess); ev != nil {
		ev.Access = *a
	}
}

// Acquire implements trace.Sink.
func (s *Sequential) Acquire(t trace.ThreadID, l trace.LockID, k trace.LockKind, st trace.StackID) {
	if ev := s.slot(tracelog.OpAcquire); ev != nil {
		ev.Thread, ev.Lock, ev.LockKind, ev.Stack = t, l, k, st
	}
}

// Release implements trace.Sink.
func (s *Sequential) Release(t trace.ThreadID, l trace.LockID, k trace.LockKind, st trace.StackID) {
	if ev := s.slot(tracelog.OpRelease); ev != nil {
		ev.Thread, ev.Lock, ev.LockKind, ev.Stack = t, l, k, st
	}
}

// Contended implements trace.Sink.
func (s *Sequential) Contended(t trace.ThreadID, l trace.LockID, st trace.StackID) {
	if ev := s.slot(tracelog.OpContended); ev != nil {
		ev.Thread, ev.Lock, ev.Stack = t, l, st
	}
}

// Alloc implements trace.Sink.
func (s *Sequential) Alloc(b *trace.Block) {
	if ev := s.slot(tracelog.OpAlloc); ev != nil {
		ev.Block = *b
	}
}

// Free implements trace.Sink.
func (s *Sequential) Free(b *trace.Block, t trace.ThreadID, st trace.StackID) {
	if ev := s.slot(tracelog.OpFree); ev != nil {
		ev.Block, ev.Thread, ev.Stack = *b, t, st
	}
}

// Segment implements trace.Sink. The caller may reuse ss.In as soon as this
// returns, so the edges are copied into the batch's arena.
func (s *Sequential) Segment(ss *trace.SegmentStart) {
	if ev := s.slot(tracelog.OpSegment); ev != nil {
		ev.Segment = trace.SegmentStart{Seg: ss.Seg, Thread: ss.Thread, In: copyEdges(&s.b.edges, ss.In)}
	}
}

// Sync implements trace.Sink.
func (s *Sequential) Sync(se *trace.SyncEvent) {
	if ev := s.slot(tracelog.OpSync); ev != nil {
		ev.Sync = *se
	}
}

// Request implements trace.Sink.
func (s *Sequential) Request(r *trace.Request) {
	if ev := s.slot(tracelog.OpRequest); ev != nil {
		ev.Request = *r
	}
}

// ThreadStart implements trace.Sink.
func (s *Sequential) ThreadStart(t, parent trace.ThreadID) {
	if ev := s.slot(tracelog.OpThreadStart); ev != nil {
		ev.Thread, ev.Parent = t, parent
	}
}

// ThreadExit implements trace.Sink.
func (s *Sequential) ThreadExit(t trace.ThreadID) {
	if ev := s.slot(tracelog.OpThreadExit); ev != nil {
		ev.Thread = t
	}
}

var _ trace.Sink = (*Sequential)(nil)
