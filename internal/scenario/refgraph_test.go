package scenario

import (
	"repro/internal/trace"
	"repro/internal/vclock"
)

type refSegment struct {
	thread trace.ThreadID
	thIdx  int32  // dense index of thread — the vc component it owns
	clock  uint32 // this thread's logical clock at segment start
	vc     vclock.VC
}

// refGraph is the thread-segment graph of Fig. 2 as it stood before the
// lock-set detector moved onto vclock.HB: it builds a clock for every
// segment from the segment's own in-edges, and answers happens-before
// queries between segments under a configurable edge mask. It is kept
// verbatim, apart from renames, as the test-only oracle checkOracles
// compares HB's segment ordering against.
//
// The VM splits thread timelines at create/join and at higher-level
// synchronisation operations (queue put/get, condition signal/wait, semaphore
// post/wait) and announces each new segment with its incoming edges. A graph
// built with trace.MaskHelgrind sees only program order and create/join —
// what Helgrind plus the Visual Threads improvement understands — while
// trace.MaskFull additionally honours the higher-level edges (the paper's
// future-work extension that removes the Fig. 11 ownership-transfer false
// positives).
//
// Segment and thread IDs are remapped onto dense indices so lookups on the
// access hot path (the EXCLUSIVE-state ownership-transfer query) are array
// loads rather than map probes, and the per-segment vector clocks are indexed
// by dense thread number, keeping them as short as the number of threads
// actually seen.
// It is not safe for concurrent use; the VM delivers events sequentially.
type refGraph struct {
	mask     trace.EdgeMask
	segIx    trace.Dense // SegmentID -> index into segs
	thIx     trace.Dense // ThreadID -> index into perTh and vc components
	segs     []refSegment
	perTh    []uint32 // last issued clock per dense thread
	segCount int
}

// newRefGraph creates a segment graph honouring the given edge kinds.
func newRefGraph(mask trace.EdgeMask) *refGraph {
	return &refGraph{mask: mask}
}

// Mask returns the edge mask the graph honours.
func (g *refGraph) Mask() trace.EdgeMask { return g.mask }

// Len returns the number of segments recorded.
func (g *refGraph) Len() int { return g.segCount }

// Add records a new segment from a trace.SegmentStart event. Edges whose
// kind is excluded by the mask are ignored, which weakens — never breaks —
// the happens-before relation the graph reports.
func (g *refGraph) Add(ss *trace.SegmentStart) {
	ti := g.thIx.Index(int32(ss.Thread))
	for len(g.perTh) <= ti {
		g.perTh = append(g.perTh, 0)
	}
	clock := g.perTh[ti] + 1
	g.perTh[ti] = clock
	vc := vclock.New(g.thIx.Cap() - 1)
	for _, e := range ss.In {
		if !g.mask.Has(e.Kind) {
			continue
		}
		if fi := g.segIx.Lookup(int32(e.From)); fi >= 0 {
			from := &g.segs[fi]
			vc = vc.Join(from.vc)
			// The predecessor segment itself happened: include its own tick.
			if from.clock > vc.Get(int(from.thIdx)) {
				vc = vc.Set(int(from.thIdx), from.clock)
			}
		}
	}
	vc = vc.Set(ti, clock)
	si := g.segIx.Index(int32(ss.Seg))
	for len(g.segs) <= si {
		g.segs = append(g.segs, refSegment{})
	}
	g.segs[si] = refSegment{thread: ss.Thread, thIdx: int32(ti), clock: clock, vc: vc}
	g.segCount++
}

// HappensBefore reports whether segment a fully happens-before segment b;
// that is, every event in a is ordered before every event in b. Equal
// segments are not ordered before themselves.
func (g *refGraph) HappensBefore(a, b trace.SegmentID) bool {
	if a == b {
		return false
	}
	ai := g.segIx.Lookup(int32(a))
	bi := g.segIx.Lookup(int32(b))
	if ai < 0 || bi < 0 {
		return false
	}
	sa := &g.segs[ai]
	return g.segs[bi].vc.Get(int(sa.thIdx)) >= sa.clock
}

// Ordered reports whether the two segments are ordered either way.
func (g *refGraph) Ordered(a, b trace.SegmentID) bool {
	return a == b || g.HappensBefore(a, b) || g.HappensBefore(b, a)
}

// Thread returns the thread a segment belongs to (0 when unknown).
func (g *refGraph) Thread(s trace.SegmentID) trace.ThreadID {
	if si := g.segIx.Lookup(int32(s)); si >= 0 {
		return g.segs[si].thread
	}
	return 0
}
