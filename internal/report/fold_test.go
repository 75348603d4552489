package report

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/trace"
)

// The fold programs below drive a Collector and a refCollector through the
// same operations and require the two to stay indistinguishable.

// foldStacks are the stack IDs a fold program draws from. Stacks 1 and 2
// resolve to equal frames, and so does 1<<21, the first ID past Dense's
// direct window; 3 and -1 resolve to the frame muteFrame suppresses; 4
// resolves; 5 resolves only once the program learns it; 6 and the other
// large and negative IDs never resolve.
var foldStacks = []trace.StackID{
	trace.NoStack, 1, 2, 3, 4, 5, 6,
	1 << 21, 1<<21 + 7, math.MaxInt32, -1, -8, math.MinInt32,
}

var foldTools = []string{"helgrind", "djit", "hybrid"}

var framesMuted = []trace.Frame{{Fn: "suppressed", File: "s.cc", Line: 9}}

// learntStack is the stack a program's learn operation resolves mid-stream.
const learntStack trace.StackID = 5

// Fold program operations. Each is one byte (taken modulo opCount)
// followed by its operand bytes.
const (
	opAdd     = iota // collector, tool, kind, stack, detail, repeats
	opLearn          // (none): the resolver learns learntStack
	opClone          // collector
	opCompact        // collector, max
	opMerge          // count, collector per input, resolver and suppressor or none
	opCount
)

// maxFoldCollectors bounds how many collectors a program may hold.
const maxFoldCollectors = 12

// foldPair is one collector under test and its reference, with the
// bookkeeping the coverage labels need.
type foldPair struct {
	got        *Collector
	want       *refCollector
	cloned     bool                // the original of a Clone
	isClone    bool                // the copy made by a Clone
	merged     bool                // the output of a Merge
	discarded  map[SiteKey]bool    // sites CompactTail dropped
	muted      map[SiteKey]bool    // sites a suppressor muted
	lastTool   map[[2]int64]string // per (stack, kind), the last tool to add
	frozenLate map[trace.StackID]bool
}

// runFoldProgram interprets in as a fold program, fails t at the first
// difference between the two sides, and returns the cases it reached.
func runFoldProgram(t *testing.T, in []byte) map[string]bool {
	t.Helper()
	g := genInput(in)
	reached := map[string]bool{}
	res := frameResolver{
		1: framesMain, 2: framesMain, 1 << 21: framesMain,
		3: framesMuted, -1: framesMuted,
		4: framesOther,
	}
	var seq uint64
	h := g.byte()
	var pairs []*foldPair
	for i := 0; i <= int(h%3); i++ {
		var r trace.Resolver = res
		var sup Suppressor = muteFrame{}
		if h&0x10 != 0 {
			r = nil
		}
		if h&0x20 != 0 {
			sup = nil
		}
		p := newFoldPair(NewCollector(r, sup), newRefCollector(r, sup))
		if h&0x40 == 0 {
			p.got.SetSequencer(func() uint64 { return seq })
			p.want.seq = func() uint64 { return seq }
		}
		pairs = append(pairs, p)
	}
	pick := func() *foldPair { return pairs[int(g.byte())%len(pairs)] }
	for n := 0; len(g) > 0 && n < 256; n++ {
		seq++
		switch g.byte() % opCount {
		case opAdd:
			p := pick()
			w := Warning{
				Tool:  foldTools[g.byte()%3],
				Kind:  Kind(g.byte() % 6), // one past the last kind has no slot
				Stack: foldStacks[int(g.byte())%len(foldStacks)],
			}
			d := g.byte()
			w.Thread, w.Addr, w.Access = trace.ThreadID(d%4), trace.Addr(d)*8, trace.AccessKind(d%2)
			for r := int(g.byte() % 3); r >= 0; r-- {
				p.add(t, w, reached)
			}
		case opLearn:
			if _, ok := res[learntStack]; !ok {
				res[learntStack] = framesOther
				for _, p := range pairs {
					if _, ok := p.want.locs[learntStack]; ok && p.want.res != nil {
						p.frozenLate[learntStack] = true
					}
				}
			}
		case opClone:
			p := pick()
			if len(pairs) < maxFoldCollectors {
				q := newFoldPair(p.got.Clone(), p.want.Clone())
				p.cloned, q.isClone = true, true
				pairs = append(pairs, q)
				checkFoldPair(t, q)
			}
		case opCompact:
			p := pick()
			max := int(g.byte() % 6)
			before := slices.Clone(p.want.order)
			gs, go_ := p.got.CompactTail(max)
			ws, wo := p.want.CompactTail(max)
			if gs != ws || go_ != wo {
				t.Fatalf("CompactTail(%d) = (%d, %d), reference (%d, %d)", max, gs, go_, ws, wo)
			}
			if ws > 0 {
				reached["compact"] = true
				for _, k := range before[len(before)-ws:] {
					p.discarded[k] = true
				}
			}
			checkFoldPair(t, p)
		case opMerge:
			k := 1 + int(g.byte()%4)
			var gots []*Collector
			var wants []*refCollector
			for range k {
				p := pick()
				gots, wants = append(gots, p.got), append(wants, p.want)
			}
			var r trace.Resolver
			var sup Suppressor
			if g.byte()%2 == 1 {
				r, sup = res, muteFrame{}
			}
			if len(pairs) < maxFoldCollectors {
				q := newFoldPair(Merge(r, sup, gots...), refMerge(r, sup, wants...))
				q.merged = true
				reached[fmt.Sprintf("merge of %d", k)] = true
				if largest := slices.MaxFunc(gots, func(a, b *Collector) int {
					return a.Locations() - b.Locations()
				}); q.got.Locations() > largest.Locations() {
					reached["merge output larger than its largest input"] = true
				}
				pairs = append(pairs, q)
				checkFoldPair(t, q)
			}
		}
	}
	for _, p := range pairs {
		checkFoldPair(t, p)
	}
	return reached
}

func newFoldPair(got *Collector, want *refCollector) *foldPair {
	return &foldPair{
		got: got, want: want,
		discarded:  map[SiteKey]bool{},
		muted:      map[SiteKey]bool{},
		lastTool:   map[[2]int64]string{},
		frozenLate: map[trace.StackID]bool{},
	}
}

// add records w on both sides, requires the same answer, and labels the
// case the occurrence exercised.
func (p *foldPair) add(t *testing.T, w Warning, reached map[string]bool) {
	t.Helper()
	key := SiteKey{Tool: w.Tool, Kind: w.Kind, Loc: p.want.locKey(w.Stack)}
	_, exists := p.want.sites[key]
	suppressed := p.want.suppressed
	got, want := p.got.Add(w), p.want.Add(w)
	if got != want {
		t.Fatalf("Add(%+v) = %v, reference %v", w, got, want)
	}
	reached["tool "+w.Tool] = true
	if int(w.Kind) < numKinds {
		reached["kind "+w.Kind.Category()] = true
	} else {
		reached["kind out of range"] = true
	}
	switch {
	case w.Stack >= 1<<21:
		reached["stack at or past 2^21"] = true
	case w.Stack < 0:
		reached["negative stack"] = true
	}
	if p.want.suppressed > suppressed {
		reached["suppressed"] = true
		if p.muted[key] {
			reached["suppressed again"] = true
		}
		p.muted[key] = true
	}
	if exists {
		for id, lk := range p.want.locs {
			if id != w.Stack && lk == key.Loc {
				reached["fold through an equal-frame stack"] = true
			}
		}
		if p.cloned {
			reached["fold in a cloned original"] = true
		}
		if p.isClone {
			reached["fold in a clone"] = true
		}
		if p.merged {
			reached["fold in a merge output"] = true
		}
	}
	if p.discarded[key] {
		reached["add at a compacted-away site"] = true
	}
	if p.frozenLate[w.Stack] {
		reached["add at a stack resolved late"] = true
	}
	sk := [2]int64{int64(w.Stack), int64(w.Kind)}
	if last, ok := p.lastTool[sk]; ok && last != w.Tool {
		reached["tools share a stack"] = true
	}
	p.lastTool[sk] = w.Tool
}

// checkFoldPair requires both sides of p to be indistinguishable through
// every accessor that reads the fold state.
func checkFoldPair(t *testing.T, p *foldPair) {
	t.Helper()
	got, want := p.got, p.want.collector()
	if got.Locations() != want.Locations() || got.Occurrences() != want.Occurrences() ||
		got.SuppressedSites() != want.SuppressedSites() {
		t.Fatalf("totals differ: %d/%d/%d, reference %d/%d/%d",
			got.Locations(), got.Occurrences(), got.SuppressedSites(),
			want.Locations(), want.Occurrences(), want.SuppressedSites())
	}
	if !slices.Equal(got.Keys(), want.Keys()) {
		t.Fatalf("keys differ:\n%v\nvs\n%v", got.Keys(), want.Keys())
	}
	if g, w := got.Manifest(), want.Manifest(); g != w {
		t.Fatalf("manifests differ:\n%s\nvs\n%s", g, w)
	}
	if g, w := got.Format(), want.Format(); g != w {
		t.Fatalf("reports differ:\n%s\nvs\n%s", g, w)
	}
	if g, w := got.AppendWire(nil), want.AppendWire(nil); !bytes.Equal(g, w) {
		t.Fatalf("wire encodings differ:\n%x\nvs\n%x", g, w)
	}
}

// foldProgram builds a fold program from a header byte and operations.
type foldProgram []byte

func (p foldProgram) add(col, tool, kind, stack byte) foldProgram {
	return append(p, opAdd, col, tool, kind, stack, col+stack, 1)
}

func (p foldProgram) op(op byte, operands ...byte) foldProgram {
	return append(append(p, op), operands...)
}

// foldSeeds is the seed corpus of FuzzCollectorFold: programs written for
// one case each, plus seeded random ones.
func foldSeeds() [][]byte {
	// Stack indexes into foldStacks.
	const s1, s2, s3, s4, s5, s6, sBig, sBig7, sMax, sNeg1, sNeg8, sMin = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12
	var all foldProgram
	for tool := byte(0); tool < 3; tool++ {
		for kind := byte(0); kind < 6; kind++ {
			for _, s := range []byte{0, s1, s4, sBig, sMax, sNeg8, sMin} {
				all = all.add(0, tool, kind, s)
			}
		}
	}
	seeds := []foldProgram{
		// Every tool, kind and stack, twice: every repeat folds.
		append(append(foldProgram{0}, all...), all...),
		// One collector shared by three tools at one stack and kind.
		foldProgram{0}.add(0, 0, 0, s1).add(0, 1, 0, s1).add(0, 0, 0, s1).add(0, 2, 0, s1).add(0, 1, 0, s1),
		// Two stacks with equal frames, either side of the direct window.
		foldProgram{0}.add(0, 0, 0, s1).add(0, 0, 0, s2).add(0, 0, 0, sBig).add(0, 0, 0, s1).add(0, 0, 0, s2),
		// A stack the resolver learns after its first warning.
		foldProgram{0}.add(0, 0, 0, s5).op(opLearn).add(0, 0, 0, s5).add(0, 1, 0, s5).add(0, 0, 0, s4),
		// Suppressed stacks, repeated.
		foldProgram{0}.add(0, 0, 0, s3).add(0, 0, 0, s3).add(0, 0, 1, sNeg1).add(0, 0, 1, sNeg1).add(0, 0, 0, s6),
		// Clone, then folds and new sites on both sides.
		foldProgram{0}.add(0, 0, 0, s1).add(0, 1, 2, sBig7).op(opClone, 0).
			add(0, 0, 0, s1).add(1, 0, 0, s1).add(1, 1, 2, sBig7).add(0, 1, 2, sBig7).add(1, 0, 0, s4),
		// Compaction, then an occurrence at a discarded site and a kept one.
		foldProgram{0}.add(0, 0, 0, s1).add(0, 0, 0, s4).add(0, 0, 0, s6).add(0, 0, 0, s4).
			op(opCompact, 0, 1).add(0, 0, 0, s4).add(0, 0, 0, s6).add(0, 0, 0, s1),
		// Merges of one to four collectors, then folds into the output.
		foldProgram{2}.add(0, 0, 0, s1).add(1, 0, 0, s2).add(2, 1, 3, s6).add(1, 2, 4, sNeg8).
			op(opMerge, 0, 0, 1).op(opMerge, 1, 0, 1, 0).op(opMerge, 2, 0, 1, 2, 1).op(opMerge, 3, 0, 1, 2, 3, 0).
			add(3, 0, 0, s1).add(4, 0, 0, s2).add(6, 2, 4, sNeg8),
		// Without a resolver, suppressor or sequencer.
		append(foldProgram{0x70}, all...),
	}
	out := make([][]byte, 0, len(seeds)+24)
	for _, s := range seeds {
		out = append(out, s)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		b := make([]byte, 1+rng.Intn(600))
		rng.Read(b)
		out = append(out, b)
	}
	return out
}

// FuzzCollectorFold holds the collector's slots and ordered sites to the
// map-keyed collector they replaced: any program of Add, Clone, CompactTail
// and Merge over one to three tools, every kind, equal-frame, late-resolved,
// suppressed, huge and negative stacks leaves both sides with the same
// totals, keys, manifest, report and wire bytes.
func FuzzCollectorFold(f *testing.F) {
	for _, s := range foldSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		runFoldProgram(t, in)
	})
}

// TestCollectorFoldCoverage checks that the seed corpus alone reaches every
// case the fold differential must cover, so the CI seed run is a real check.
func TestCollectorFoldCoverage(t *testing.T) {
	reached := map[string]bool{}
	for _, s := range foldSeeds() {
		for k := range runFoldProgram(t, s) {
			reached[k] = true
		}
	}
	want := []string{
		"kind out of range", "stack at or past 2^21", "negative stack",
		"suppressed", "suppressed again", "fold through an equal-frame stack",
		"fold in a cloned original", "fold in a clone", "fold in a merge output",
		"compact", "add at a compacted-away site", "add at a stack resolved late",
		"tools share a stack",
		"merge of 1", "merge of 2", "merge of 3", "merge of 4",
		"merge output larger than its largest input",
	}
	for _, tool := range foldTools {
		want = append(want, "tool "+tool)
	}
	for _, k := range []Kind{KindRace, KindDeadlock, KindUseAfterFree, KindInvalidFree, KindHighLevel} {
		want = append(want, "kind "+k.Category())
	}
	for _, c := range want {
		if !reached[c] {
			t.Errorf("seed corpus never reaches %q", c)
		}
	}
}
