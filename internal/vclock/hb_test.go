package vclock

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// The tests below feed HB what the lock-set detector feeds it — thread
// starts and segments, no lock or Sync events — and check the thread-segment
// ordering of Fig. 2 that SegmentBefore answers. Each child thread gets the
// ThreadStart the VM emits before the child's first segment.

func seg(id trace.SegmentID, th trace.ThreadID, in ...trace.SegmentEdge) *trace.SegmentStart {
	return &trace.SegmentStart{Seg: id, Thread: th, In: in}
}

// ordered reports whether the two segments are ordered either way.
func ordered(h *HB, a, b trace.SegmentID) bool {
	return a == b || h.SegmentBefore(a, b) || h.SegmentBefore(b, a)
}

func TestCreateJoinOrdering(t *testing.T) {
	h := &HB{Edges: trace.MaskHelgrind}
	// Fig. 2: main TS1, create -> child TS3 + main TS2, join -> main TS4.
	h.ThreadStart(1, 0)
	h.Segment(seg(1, 1))
	h.ThreadStart(2, 1)
	h.Segment(seg(3, 2, trace.SegmentEdge{From: 1, Kind: trace.Create}))
	h.Segment(seg(2, 1, trace.SegmentEdge{From: 1, Kind: trace.Program}))
	h.Segment(seg(4, 1,
		trace.SegmentEdge{From: 2, Kind: trace.Program},
		trace.SegmentEdge{From: 3, Kind: trace.Join}))

	cases := []struct {
		a, b trace.SegmentID
		want bool
	}{
		{1, 2, true},  // program order
		{1, 3, true},  // create edge
		{1, 4, true},  // transitive
		{3, 4, true},  // join edge
		{2, 3, false}, // concurrent: parent after create vs child
		{3, 2, false},
		{4, 1, false}, // no backwards ordering
		{2, 4, true},
	}
	for _, c := range cases {
		if got := h.SegmentBefore(c.a, c.b); got != c.want {
			t.Errorf("SegmentBefore(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if ordered(h, 2, 3) {
		t.Error("2 and 3 must be concurrent")
	}
	if !ordered(h, 1, 4) {
		t.Error("1 and 4 must be ordered")
	}
}

// TestCreateOrderFromThreadStart pins where HB takes create ordering from:
// the ThreadStart event, never a segment's Create in-edge. The VM always
// emits the ThreadStart before the child's first segment, so on VM traces
// the two agree; on a hand-built trace that carries the Create edge but
// starts the child with no parent, HB leaves the segments concurrent (the
// segment graph HB replaced ordered them by the edge).
func TestCreateOrderFromThreadStart(t *testing.T) {
	for _, parent := range []trace.ThreadID{0, 1} {
		h := &HB{Edges: trace.MaskFull}
		h.ThreadStart(1, 0)
		h.Segment(seg(1, 1))
		h.ThreadStart(2, parent)
		h.Segment(seg(2, 2, trace.SegmentEdge{From: 1, Kind: trace.Create}))
		if got, want := h.SegmentBefore(1, 2), parent != 0; got != want {
			t.Errorf("ThreadStart(2, %d): SegmentBefore(1,2) = %v, want %v", parent, got, want)
		}
		if h.SegmentBefore(2, 1) {
			t.Errorf("ThreadStart(2, %d): child ordered before its parent", parent)
		}
	}
}

func TestMaskFiltersQueueEdges(t *testing.T) {
	build := func(mask trace.EdgeMask) *HB {
		h := &HB{Edges: mask}
		h.ThreadStart(1, 0)
		h.ThreadStart(2, 0)
		h.Segment(seg(1, 1))                                                  // producer pre-put
		h.Segment(seg(2, 2))                                                  // consumer pre-get
		h.Segment(seg(3, 1, trace.SegmentEdge{From: 1, Kind: trace.Program})) // producer post-put
		h.Segment(seg(4, 2,
			trace.SegmentEdge{From: 2, Kind: trace.Program},
			trace.SegmentEdge{From: 1, Kind: trace.Queue})) // consumer post-get
		return h
	}
	helgrind := build(trace.MaskHelgrind)
	if helgrind.SegmentBefore(1, 4) {
		t.Error("Helgrind mask must ignore queue edges (Fig. 11 false positive)")
	}
	full := build(trace.MaskFull)
	if !full.SegmentBefore(1, 4) {
		t.Error("full mask must honour queue edges")
	}
}

func TestSelfNotOrdered(t *testing.T) {
	h := &HB{Edges: trace.MaskFull}
	h.ThreadStart(1, 0)
	h.Segment(seg(1, 1))
	if h.SegmentBefore(1, 1) {
		t.Error("a segment must not happen-before itself")
	}
	if !ordered(h, 1, 1) {
		t.Error("a segment is trivially ordered with itself")
	}
}

func TestUnknownSegments(t *testing.T) {
	h := &HB{Edges: trace.MaskFull}
	if h.SegmentBefore(5, 6) {
		t.Error("unknown segments must not be ordered")
	}
	h.ThreadStart(1, 0)
	h.Segment(seg(1, 1))
	if h.SegmentBefore(1, 5) || h.SegmentBefore(5, 1) {
		t.Error("an unknown segment must not be ordered with a known one")
	}
}

// TestChainProperty builds random fork chains and checks that program order
// is always transitively respected and that happens-before is antisymmetric.
func TestChainProperty(t *testing.T) {
	prop := func(lengths []uint8) bool {
		h := &HB{Edges: trace.MaskHelgrind}
		h.ThreadStart(1, 0)
		id := trace.SegmentID(1)
		var prev trace.SegmentID
		var chain []trace.SegmentID
		n := len(lengths)%20 + 2
		for i := 0; i < n; i++ {
			if prev == 0 {
				h.Segment(seg(id, 1))
			} else {
				h.Segment(seg(id, 1, trace.SegmentEdge{From: prev, Kind: trace.Program}))
			}
			chain = append(chain, id)
			prev = id
			id++
		}
		for i := 0; i < len(chain); i++ {
			for j := i + 1; j < len(chain); j++ {
				if !h.SegmentBefore(chain[i], chain[j]) {
					return false
				}
				if h.SegmentBefore(chain[j], chain[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDiamondForkJoin(t *testing.T) {
	// main forks two children; both join back. Children concurrent with each
	// other; everything ordered with pre-fork and post-join.
	h := &HB{Edges: trace.MaskHelgrind}
	h.ThreadStart(1, 0)
	h.Segment(seg(1, 1)) // main pre-fork
	h.ThreadStart(2, 1)
	h.Segment(seg(2, 2, trace.SegmentEdge{From: 1, Kind: trace.Create}))  // child A
	h.Segment(seg(3, 1, trace.SegmentEdge{From: 1, Kind: trace.Program})) // main between forks
	h.ThreadStart(3, 1)
	h.Segment(seg(4, 3, trace.SegmentEdge{From: 3, Kind: trace.Create}))  // child B
	h.Segment(seg(5, 1, trace.SegmentEdge{From: 3, Kind: trace.Program})) // main after forks
	h.Segment(seg(6, 1,
		trace.SegmentEdge{From: 5, Kind: trace.Program},
		trace.SegmentEdge{From: 2, Kind: trace.Join})) // joined A
	h.Segment(seg(7, 1,
		trace.SegmentEdge{From: 6, Kind: trace.Program},
		trace.SegmentEdge{From: 4, Kind: trace.Join})) // joined B

	if ordered(h, 2, 4) {
		t.Error("children must be concurrent")
	}
	for _, s := range []trace.SegmentID{2, 4} {
		if !h.SegmentBefore(1, s) {
			t.Errorf("pre-fork must order before child %d", s)
		}
		if !h.SegmentBefore(s, 7) {
			t.Errorf("child %d must order before post-join", s)
		}
	}
	if !h.SegmentBefore(2, 6) {
		t.Error("child A must order before its join segment")
	}
	if h.SegmentBefore(4, 6) {
		t.Error("child B must not order before A's join segment")
	}
}

// TestRandomDAGMatchesReference builds random segment DAGs and checks
// SegmentBefore against plain BFS reachability over the masked edges — the
// vector-clock implementation must agree with the graph-theoretic truth.
// Threads are created as the VM creates them: a Create edge only into a
// thread's first segment, announced by the ThreadStart naming its parent.
func TestRandomDAGMatchesReference(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nThreads := 2 + rng.Intn(3)
		perThread := 2 + rng.Intn(5)
		h := &HB{Edges: trace.MaskHelgrind}

		type node struct {
			id trace.SegmentID
			in []trace.SegmentEdge
		}
		var nodes []node
		id := trace.SegmentID(1)
		last := make([]trace.SegmentID, nThreads+1)
		// Interleave thread timelines; occasionally add a cross edge of a
		// random kind (only Create/Join count under the mask).
		for round := 0; round < perThread; round++ {
			for th := 1; th <= nThreads; th++ {
				var in []trace.SegmentEdge
				if last[th] != 0 {
					in = append(in, trace.SegmentEdge{From: last[th], Kind: trace.Program})
				}
				var parent trace.ThreadID
				if rng.Intn(3) == 0 {
					src := 1 + rng.Intn(nThreads)
					if last[src] != 0 && src != th {
						kind := []trace.EdgeKind{trace.Join, trace.Queue, trace.Cond}[rng.Intn(3)]
						if last[th] == 0 {
							kind, parent = trace.Create, trace.ThreadID(src)
						}
						in = append(in, trace.SegmentEdge{From: last[src], Kind: kind})
					}
				}
				if last[th] == 0 {
					h.ThreadStart(trace.ThreadID(th), parent)
				}
				nodes = append(nodes, node{id: id, in: in})
				h.Segment(&trace.SegmentStart{Seg: id, Thread: trace.ThreadID(th), In: in})
				last[th] = id
				id++
			}
		}
		// Reference reachability over masked edges.
		succ := make(map[trace.SegmentID][]trace.SegmentID)
		for _, n := range nodes {
			for _, e := range n.in {
				if trace.MaskHelgrind.Has(e.Kind) {
					succ[e.From] = append(succ[e.From], n.id)
				}
			}
		}
		reaches := func(a, b trace.SegmentID) bool {
			if a == b {
				return false
			}
			seen := map[trace.SegmentID]bool{a: true}
			stack := []trace.SegmentID{a}
			for len(stack) > 0 {
				cur := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, nxt := range succ[cur] {
					if nxt == b {
						return true
					}
					if !seen[nxt] {
						seen[nxt] = true
						stack = append(stack, nxt)
					}
				}
			}
			return false
		}
		for _, a := range nodes {
			for _, b := range nodes {
				if h.SegmentBefore(a.id, b.id) != reaches(a.id, b.id) {
					t.Logf("seed %d: SegmentBefore(%d,%d)=%v, reference=%v", seed, a.id, b.id,
						h.SegmentBefore(a.id, b.id), reaches(a.id, b.id))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
