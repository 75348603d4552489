package highlevel

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/report"
	"repro/internal/trace"
)

// This file keeps the map-based analysis that Finish ran before it moved to
// sorted key slices, verbatim, as the test oracle refFinish. The fuzz target
// holds the production Finish to it warning for warning: each warning
// carries the (lock, len(m), m.stack, bad.stack) of one violation — lock and
// view size in State, the two stacks in Stack and PrevStack — so equal
// ordered warning lists mean equal ordered triples, not just equal counts.

// recordedViews regroups d's recorded views by lock, then thread.
func recordedViews(d *Detector) map[trace.LockID]map[trace.ThreadID][]*view {
	out := make(map[trace.LockID]map[trace.ThreadID][]*view)
	for k, rec := range d.recs {
		if out[k.lock] == nil {
			out[k.lock] = make(map[trace.ThreadID][]*view)
		}
		out[k.lock][k.thread] = rec.views
	}
	return out
}

// refFinish is the pre-rewrite Finish over d's recorded views, reporting to
// col instead of d's collector. It reads d and changes nothing.
func refFinish(d *Detector, col trace.Reporter) {
	views := recordedViews(d)
	locks := make([]trace.LockID, 0, len(views))
	for l := range views {
		locks = append(locks, l)
	}
	sort.Slice(locks, func(i, j int) bool { return locks[i] < locks[j] })
	for _, l := range locks {
		byThread := views[l]
		threads := make([]trace.ThreadID, 0, len(byThread))
		for t := range byThread {
			threads = append(threads, t)
		}
		sort.Slice(threads, func(i, j int) bool { return threads[i] < threads[j] })
		for _, t1 := range threads {
			maximal := refMaximalViews(byThread[t1])
			for _, t2 := range threads {
				if t1 == t2 {
					continue
				}
				for _, m := range maximal {
					if len(varSet(m)) < d.cfg.MinViewSize {
						continue
					}
					if bad := refViolates(m, byThread[t2]); bad != nil {
						refReport(d.cfg, col, l, m, bad)
					}
				}
			}
		}
	}
}

// refMaximalViews returns the views not strictly contained in another view of
// the same thread.
func refMaximalViews(vs []*view) []*view {
	var out []*view
	for i, v := range vs {
		maximal := true
		for j, w := range vs {
			if i != j && refSubset(varSet(v), varSet(w)) && len(varSet(v)) < len(varSet(w)) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, v)
		}
	}
	return out
}

// refViolates checks whether the other thread's views intersect m in a chain;
// it returns one offending view when they do not.
func refViolates(m *view, others []*view) *view {
	type inter struct {
		set map[varKey]struct{}
		src *view
	}
	var inters []inter
	for _, o := range others {
		x := refIntersect(varSet(m), varSet(o))
		if len(x) > 0 {
			inters = append(inters, inter{set: x, src: o})
		}
	}
	for i := 0; i < len(inters); i++ {
		for j := i + 1; j < len(inters); j++ {
			a, b := inters[i], inters[j]
			if !refSubset(a.set, b.set) && !refSubset(b.set, a.set) {
				return b.src
			}
		}
	}
	return nil
}

func refSubset(a, b map[varKey]struct{}) bool {
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

func refIntersect(a, b map[varKey]struct{}) map[varKey]struct{} {
	out := make(map[varKey]struct{})
	for k := range a {
		if _, ok := b[k]; ok {
			out[k] = struct{}{}
		}
	}
	return out
}

func refReport(cfg Config, col trace.Reporter, l trace.LockID, m, bad *view) {
	col.Add(report.Warning{
		Tool:      cfg.Tool,
		Kind:      report.KindHighLevel,
		Addr:      m.addr,
		Block:     m.block,
		Stack:     m.stack,
		PrevStack: bad.stack,
		State: fmt.Sprintf("lock L%d: a view of %d variable(s) is split inconsistently by another thread",
			l, len(varSet(m))),
	})
}

// varSet is a recorded view's variables as the set the map-based analysis
// read.
func varSet(v *view) map[varKey]struct{} {
	set := make(map[varKey]struct{}, len(v.keys))
	for _, k := range v.keys {
		set[k] = struct{}{}
	}
	return set
}

// recorder is a trace.Reporter that keeps every warning in order.
type recorder []report.Warning

func (r *recorder) Add(w report.Warning) bool {
	*r = append(*r, w)
	return true
}

// section is one critical section of a generated view set: thread t holds
// lock l and touches the variables whose bits are set in vars. Bits 0–11
// are granules 0–11 of block 1, bits 12–15 granules 0–3 of block 2, so
// views overlap across two blocks.
type section struct {
	t, l uint8
	vars uint16
}

const maxSections = 256

// encodeViews is the fuzz input for a view set: one config byte
// (MinViewSize = 1 + b%3), then three bytes per section — thread in bits 0–1
// and lock in bits 2–3 of the first, the variable mask little-endian in the
// next two.
func encodeViews(minViewSize int, secs ...section) []byte {
	out := []byte{byte(minViewSize - 1)}
	for _, s := range secs {
		out = append(out, s.t&3|(s.l&3)<<2, byte(s.vars), byte(s.vars>>8))
	}
	return out
}

// newFedDetector creates a detector whose blocks 1 and 2 are allocated,
// 1 KiB each, so every variable feed touches lies inside its block.
func newFedDetector(cfg Config, col trace.Reporter) *Detector {
	d := New(cfg, col)
	for id := trace.BlockID(1); id <= 2; id++ {
		d.Alloc(&trace.Block{ID: id, Size: 1024})
	}
	return d
}

// feed runs one critical section through the detector's event path.
func feed(d *Detector, t trace.ThreadID, l trace.LockID, stack trace.StackID, vars ...varKey) {
	d.Acquire(t, l, trace.Mutex, stack)
	for _, k := range vars {
		d.Access(&trace.Access{
			Thread: t,
			Block:  k.block,
			Addr:   trace.Addr(uint64(k.block)<<16 + uint64(k.gran)*4),
			Off:    k.gran * 4,
			Size:   4,
			Stack:  stack,
		})
	}
	d.Release(t, l, trace.Mutex, stack)
}

// decodeViews builds a detector from a fuzz input. Each section gets its own
// acquisition stack (its index + 1), so every recorded view can be told
// apart in a report.
func decodeViews(data []byte, col trace.Reporter) *Detector {
	cfg := Config{}
	if len(data) > 0 {
		cfg.MinViewSize = 1 + int(data[0]%3)
		data = data[1:]
	}
	d := newFedDetector(cfg, col)
	var vars []varKey
	for i := 0; i+3 <= len(data) && i/3 < maxSections; i += 3 {
		mask := uint16(data[i+1]) | uint16(data[i+2])<<8
		vars = vars[:0]
		for b := 0; b < 16; b++ {
			if mask&(1<<b) == 0 {
				continue
			}
			if b < 12 {
				vars = append(vars, varKey{block: 1, gran: uint32(b)})
			} else {
				vars = append(vars, varKey{block: 2, gran: uint32(b - 12)})
			}
		}
		feed(d, trace.ThreadID(data[i]&3+1), trace.LockID(data[i]>>2&3+1), trace.StackID(i/3+1), vars...)
	}
	return d
}

// viewSeeds is the seed corpus of FuzzViewConsistency;
// TestViewConsistencyCoverage checks that it reaches every case the chain
// test and the fallback scan distinguish.
func viewSeeds() [][]byte {
	const (
		a, b, c, d, e, f = 1 << 0, 1 << 1, 1 << 2, 1 << 3, 1 << 4, 1 << 5
		x                = 1 << 12 // block 2
	)
	return [][]byte{
		// The paper's §2.1 pair: {dob,age} read as a unit, written apart.
		// The view is exactly MinViewSize, and its intersections are
		// equal-size and distinct.
		encodeViews(2, section{0, 0, a | b}, section{1, 0, a}, section{1, 0, b}),
		// A chain {a} ⊆ {a,b} ⊆ {a,b,c}, an empty intersection ({e}), and
		// two views ({a}, {a,f}) with equal intersections.
		encodeViews(2, section{0, 0, a | b | c | d}, section{1, 0, a}, section{1, 0, a | f},
			section{1, 0, a | b}, section{1, 0, a | b | c}, section{1, 0, e}),
		// A near-chain: {a}, {a,b}, {a,b,c} nest, {d} breaks it only
		// against the first, at j = 3.
		encodeViews(2, section{0, 0, a | b | c | d}, section{1, 0, a}, section{1, 0, a | b},
			section{1, 0, a | b | c}, section{1, 0, d}),
		// Two locks across two blocks: a violation under L2, a chain
		// under L1, and a third thread that agrees with both.
		encodeViews(2, section{0, 0, a | x}, section{1, 0, a}, section{1, 0, a | x},
			section{0, 1, c | d}, section{1, 1, c}, section{1, 1, d}, section{2, 1, c | d},
			section{2, 0, a | x}),
		// MinViewSize 3: the size-2 views are skipped, the size-3 one is
		// split.
		encodeViews(3, section{0, 0, a | b}, section{0, 0, c | d | e}, section{1, 0, a},
			section{1, 0, b}, section{1, 0, c | d}, section{1, 0, e}),
		// The blamed view is not the chain test's failing neighbour: the
		// pairwise scan blames {d} (pair 0, 1); the size order meets {d}
		// and {a} first and would blame {a}.
		encodeViews(2, section{0, 0, a | b | c | d}, section{1, 0, a | b | c}, section{1, 0, d},
			section{1, 0, a}),
		// Empty critical sections are pooled and never recorded.
		encodeViews(2, section{0, 0, 0}, section{0, 0, a | b}, section{1, 0, 0}, section{1, 0, a}),
		// Locked-table shape: each thread writes one slot plus a shared
		// counter per section.
		encodeViews(2, section{0, 0, a | x}, section{0, 0, b | x}, section{0, 0, c | x},
			section{1, 0, a | x}, section{1, 0, b | x}, section{1, 0, c | x}),
	}
}

// FuzzViewConsistency holds Finish to refFinish on generated view sets over
// threads × locks × overlapping variable sets.
func FuzzViewConsistency(f *testing.F) {
	for _, s := range viewSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkViews(t, data)
	})
}

// checkViews runs one generated view set through both analyses and fails on
// the first differing warning.
func checkViews(t *testing.T, data []byte) (got recorder) {
	t.Helper()
	var want recorder
	d := decodeViews(data, &got)
	refFinish(d, &want)
	d.Finish()
	compareWarnings(t, got, want)
	return got
}

func compareWarnings(t *testing.T, got, want []report.Warning) {
	t.Helper()
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			t.Fatalf("warning %d: missing, oracle has %+v", i, want[i])
		case i >= len(want):
			t.Fatalf("warning %d: %+v, oracle has none", i, got[i])
		case got[i] != want[i]:
			t.Fatalf("warning %d: %+v, oracle has %+v", i, got[i], want[i])
		}
	}
}

// viewCases names what a seed reaches in the oracle's analysis.
type viewCases struct {
	emptyIntersection, chain, lateNearChain, equalSizeDistinct,
	equalFromDifferentViews, atMinViewSize, severalLocks, violation bool
}

// refCases walks refFinish's (m, others) checks over d and records which
// cases they reach. On each it also holds isChain to its claim: a chain
// exactly when refViolates blames nobody.
func refCases(t *testing.T, d *Detector, c *viewCases) {
	t.Helper()
	views := recordedViews(d)
	if len(views) > 1 {
		c.severalLocks = true
	}
	for _, byThread := range views {
		for t1, vs := range byThread {
			for t2, others := range byThread {
				if t1 == t2 {
					continue
				}
				for _, m := range refMaximalViews(vs) {
					if len(m.keys) < d.cfg.MinViewSize {
						continue
					}
					if len(m.keys) == d.cfg.MinViewSize {
						c.atMinViewSize = true
					}
					refCasesOf(m, others, c)
					d.intersect(m, others)
					chain := isChain(d.arena, slices.Clone(d.inters))
					if want := refViolates(m, others) == nil; chain != want {
						t.Errorf("view of stack %d: isChain = %v, oracle chain = %v", m.stack, chain, want)
					}
				}
			}
		}
	}
}

func refCasesOf(m *view, others []*view, c *viewCases) {
	var inters []map[varKey]struct{}
	for _, o := range others {
		if x := refIntersect(varSet(m), varSet(o)); len(x) > 0 {
			inters = append(inters, x)
		} else {
			c.emptyIntersection = true
		}
	}
	sizes := map[int]bool{}
	culprit := -1 // the j refViolates blames: first i, then first j > i
	for i := range inters {
		sizes[len(inters[i])] = true
		for j := i + 1; j < len(inters); j++ {
			fwd, back := refSubset(inters[i], inters[j]), refSubset(inters[j], inters[i])
			switch {
			case fwd && back:
				c.equalFromDifferentViews = true
			case len(inters[i]) == len(inters[j]):
				c.equalSizeDistinct = true
			}
			if !fwd && !back && culprit < 0 {
				culprit = j
			}
		}
	}
	switch {
	case culprit >= 0:
		c.violation = true
		if culprit >= 3 {
			c.lateNearChain = true
		}
	case len(sizes) >= 3:
		c.chain = true
	}
}

// TestViewConsistencyCoverage checks that the seed corpus reaches every case
// the rewrite must keep: empty intersections, a chain, a near-chain broken
// only at j >= 3, equal-size distinct and equal intersections, a view at
// exactly MinViewSize, several locks and a reported violation. It also runs
// every seed through the oracle comparison.
func TestViewConsistencyCoverage(t *testing.T) {
	var c viewCases
	for _, s := range viewSeeds() {
		checkViews(t, s)
		refCases(t, decodeViews(s, new(recorder)), &c)
	}
	for name, hit := range map[string]bool{
		"an empty intersection":              c.emptyIntersection,
		"a chain of three sizes":             c.chain,
		"a near-chain broken only at j >= 3": c.lateNearChain,
		"equal-size distinct intersections":  c.equalSizeDistinct,
		"equal intersections from two views": c.equalFromDifferentViews,
		"a view of exactly MinViewSize":      c.atMinViewSize,
		"more than one lock":                 c.severalLocks,
		"a reported violation":               c.violation,
	} {
		if !hit {
			t.Errorf("seed corpus never reaches %s", name)
		}
	}
}

// lockedTableViews records the views of the locked-table workload's shape
// for two threads: each critical section writes one 8-byte slot of a
// 64-slot table (two granules of block 1) and the shared 8-byte counter
// (block 2).
func lockedTableViews() *Detector {
	d := newFedDetector(Config{}, new(recorder))
	for t := trace.ThreadID(1); t <= 2; t++ {
		for slot := uint32(0); slot < 64; slot++ {
			feed(d, t, 1, trace.StackID(slot+1),
				varKey{1, 2 * slot}, varKey{1, 2*slot + 1}, varKey{2, 0}, varKey{2, 1})
		}
	}
	return d
}

// TestZeroAllocViewCheck pins the per-(m, others) check — maximalViews and
// violates — to zero allocations once its buffers are warm.
func TestZeroAllocViewCheck(t *testing.T) {
	d := lockedTableViews()
	mine, others := d.recs[lockThread{1, 1}].views, d.recs[lockThread{1, 2}].views
	if len(mine) != 64 || len(others) != 64 {
		t.Fatalf("recorded %d and %d views, want 64 each", len(mine), len(others))
	}
	check := func() {
		d.maximal = maximalViews(mine, d.maximal[:0])
		for _, m := range d.maximal {
			if bad := d.violates(m, others); bad != nil {
				t.Fatalf("locked-table views reported a violation")
			}
		}
	}
	check()
	if allocs := testing.AllocsPerRun(20, check); allocs != 0 {
		t.Errorf("view check: %v allocs per run, want 0", allocs)
	}
}
