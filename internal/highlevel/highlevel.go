// Package highlevel implements the view-consistency check of Artho,
// Havelund & Biere ("High-level data races", [1] in the paper), which the
// paper's §2.1 motivates with the date-of-birth/age example: even when every
// single access to a shared structure is protected by a lock, the program
// can reach inconsistent states if related fields are updated in separate
// critical sections.
//
// A *view* is the set of shared locations a thread accesses within one
// critical section of a lock. Views of one thread that are maximal under set
// inclusion express which fields the thread treats as an atomic unit; a
// second thread is *view consistent* with them if its own views intersect
// each maximal view in a chain (totally ordered by inclusion). A violation
// means one thread splits a unit that another thread treats as atomic —
// exactly the setter-pair of the paper's example.
package highlevel

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/report"
	"repro/internal/trace"
)

// Config parameterises the detector.
type Config struct {
	// Tool is the report name; defaults to "highlevel".
	Tool string
	// Granule is the location granularity in bytes (default 4).
	Granule int
	// MinViewSize ignores maximal views smaller than this many locations
	// (default 2 — a one-variable view cannot be split).
	MinViewSize int
}

func (c Config) withDefaults() Config {
	if c.Tool == "" {
		c.Tool = "highlevel"
	}
	if c.Granule <= 0 {
		c.Granule = 4
	}
	if c.MinViewSize <= 0 {
		c.MinViewSize = 2
	}
	return c
}

type varKey struct {
	block trace.BlockID
	gran  uint32
}

func varKeyLess(a, b varKey) bool {
	if a.block != b.block {
		return a.block < b.block
	}
	return a.gran < b.gran
}

func cmpVarKey(a, b varKey) int {
	if c := cmp.Compare(a.block, b.block); c != 0 {
		return c
	}
	return cmp.Compare(a.gran, b.gran)
}

// compactSlack is how far an open view may grow past twice its last
// compacted length before Access compacts it again.
const compactSlack = 16

// view is one critical section: the granules its accesses touched, in keys.
// While the section is open, keys is an append log (see add); compact sorts
// and deduplicates it in place. Access compacts once the log exceeds
// 2×compacted + compactSlack, so an open view holds at most 2× its distinct
// granules + compactSlack keys, and a section of n accesses costs
// O(n log n). Release compacts once more; a recorded view's keys are sorted
// and distinct, which is what Finish reads.
type view struct {
	lock      trace.LockID // the lock the section holds
	keys      []varKey
	compacted int           // len(keys) after the last compaction
	inOrder   bool          // keys are strictly increasing: compaction has nothing to do
	stack     trace.StackID // acquisition site
	addr      trace.Addr    // representative address (first access)
	block     trace.BlockID
}

// add appends the granules [lo, hi) of block b. It skips a key equal to the
// last one appended, and, while keys are in order, a smaller key already
// among them: a section that rereads what it touched — a load then a store
// of the same word — keeps its keys sorted and never needs compacting.
func (v *view) add(b trace.BlockID, lo, hi int) {
	for g := lo; g < hi; g++ {
		k := varKey{block: b, gran: uint32(g)}
		if n := len(v.keys); n > 0 {
			last := v.keys[n-1]
			if k == last {
				continue
			}
			if varKeyLess(k, last) {
				if v.inOrder {
					if _, found := slices.BinarySearchFunc(v.keys, k, cmpVarKey); found {
						continue
					}
				}
				v.inOrder = false
			}
		}
		v.keys = append(v.keys, k)
	}
	if len(v.keys) > 2*v.compacted+compactSlack {
		v.compact()
	}
}

// compact sorts and deduplicates keys in place, unless they are already
// strictly increasing.
func (v *view) compact() {
	if !v.inOrder {
		slices.SortFunc(v.keys, cmpVarKey)
		v.keys = slices.Compact(v.keys)
		v.inOrder = true
	}
	v.compacted = len(v.keys)
}

// Detector is the view-consistency tool. Call Finish after the run to
// perform the analysis (core.Run does this automatically).
//
// A thread's open critical sections are one small slice of views, searched
// by lock on Acquire and Release; Access appends to each of them. Release
// finds the (lock, thread) record in one lookup and dedups the view by its
// compacted keys, encoded into a reused buffer, so a repeated view costs two
// map probes and no allocation.
type Detector struct {
	trace.BaseSink
	cfg      Config
	col      trace.Reporter
	cells    map[trace.BlockID]int // live blocks' granule counts
	open     map[trace.ThreadID][]*view
	recs     map[lockThread]*viewSet
	finished bool
	reports  int

	// Free list plus the Release dedup buffer. Critical sections open and
	// close once per Acquire/Release pair, but distinct views per (lock,
	// thread) are bounded by program structure — so recycling the
	// duplicates keeps the steady-state event path allocation-free.
	pool       []*view
	scratchBuf []byte

	// Finish's reused buffers: the maximal views of one thread, and per
	// violates call the intersections' keys, their spans and a copy of the
	// spans to sort.
	maximal []*view
	arena   []varKey
	inters  []inter
	sorted  []inter
}

// lockThread names the views one thread recorded under one lock. It is
// eight bytes with no padding, so the map hashes it as plain memory.
type lockThread struct {
	lock   trace.LockID
	thread trace.ThreadID
}

// viewSet is the distinct views one thread recorded under one lock, in
// Release order, with the encoded keys of each for Release's dedup.
type viewSet struct {
	lockThread
	views []*view
	seen  map[string]bool
}

// Spec registers the detector with the analysis engine's tool registry. The
// view-consistency checker is single-routed: the auxiliary tool the overload
// ladder sheds first. Its warnings are emitted by the end-of-stream Finish
// pass, which the engine sequences after every stream event.
func Spec(cfg Config) trace.ToolSpec {
	cfg = cfg.withDefaults()
	return trace.ToolSpec{
		Name:    cfg.Tool,
		Routing: trace.RouteSingle,
		Factory: func(col trace.Reporter) trace.Sink { return New(cfg, col) },
	}
}

// New creates a view-consistency detector writing to col.
func New(cfg Config, col trace.Reporter) *Detector {
	return &Detector{
		cfg:   cfg.withDefaults(),
		col:   col,
		cells: make(map[trace.BlockID]int),
		open:  make(map[trace.ThreadID][]*view),
		recs:  make(map[lockThread]*viewSet),
	}
}

// ToolName implements trace.Sink.
func (d *Detector) ToolName() string { return d.cfg.Tool }

// Violations returns the number of reported view inconsistencies.
func (d *Detector) Violations() int { return d.reports }

// Acquire implements trace.Sink: opens a fresh view for the critical
// section. Re-acquiring a lock the thread already holds replaces that
// lock's view.
func (d *Detector) Acquire(t trace.ThreadID, l trace.LockID, _ trace.LockKind, stack trace.StackID) {
	var v *view
	if n := len(d.pool); n > 0 {
		v = d.pool[n-1]
		d.pool = d.pool[:n-1]
		*v = view{keys: v.keys[:0]}
	} else {
		v = new(view)
	}
	v.lock, v.stack, v.inOrder = l, stack, true
	vs := d.open[t]
	if i := openIndex(vs, l); i >= 0 {
		d.pool = append(d.pool, vs[i])
		vs[i] = v
		return
	}
	d.open[t] = append(vs, v)
}

// openIndex returns the index of lock l's view among a thread's open views,
// or -1.
func openIndex(vs []*view, l trace.LockID) int {
	for i, v := range vs {
		if v.lock == l {
			return i
		}
	}
	return -1
}

// Release implements trace.Sink: finalises the critical section's view. A
// release of a lock with no open section is ignored.
func (d *Detector) Release(t trace.ThreadID, l trace.LockID, _ trace.LockKind, _ trace.StackID) {
	vs := d.open[t]
	i := openIndex(vs, l)
	if i < 0 {
		return
	}
	v := vs[i]
	d.open[t] = slices.Delete(vs, i, i+1)
	if len(v.keys) == 0 {
		d.pool = append(d.pool, v)
		return
	}
	key := lockThread{l, t}
	rec := d.recs[key]
	if rec == nil {
		rec = &viewSet{lockThread: key, seen: make(map[string]bool)}
		d.recs[key] = rec
	}
	v.compact()
	buf := d.scratchBuf[:0]
	for _, k := range v.keys {
		buf = append(buf,
			byte(k.block), byte(k.block>>8), byte(k.block>>16), byte(k.block>>24),
			byte(k.gran), byte(k.gran>>8), byte(k.gran>>16), byte(k.gran>>24))
	}
	d.scratchBuf = buf
	if rec.seen[string(buf)] {
		d.pool = append(d.pool, v)
		return // identical view already recorded
	}
	rec.seen[string(buf)] = true
	rec.views = append(rec.views, v)
}

// Alloc implements trace.Sink: the block's granules are the variables its
// accesses can touch.
func (d *Detector) Alloc(b *trace.Block) {
	d.cells[b.ID] = (int(b.Size) + d.cfg.Granule - 1) / d.cfg.Granule
}

// Free implements trace.Sink: accesses to a freed block touch no variable.
func (d *Detector) Free(b *trace.Block, _ trace.ThreadID, _ trace.StackID) {
	delete(d.cells, b.ID)
}

// Access implements trace.Sink: adds the granules the access touches inside
// its block to every critical section the thread currently has open.
func (d *Detector) Access(a *trace.Access) {
	vs := d.open[a.Thread]
	if len(vs) == 0 {
		return
	}
	lo, hi := trace.Granules(a.Off, a.Size, d.cfg.Granule, d.cells[a.Block])
	if lo >= hi {
		return
	}
	for _, v := range vs {
		if len(v.keys) == 0 {
			v.addr = a.Addr
			v.block = a.Block
		}
		v.add(a.Block, lo, hi)
	}
}

// Finish runs the view-consistency analysis over all recorded views. It is
// idempotent.
func (d *Detector) Finish() {
	if d.finished {
		return
	}
	d.finished = true
	recs := make([]*viewSet, 0, len(d.recs))
	for _, rec := range d.recs {
		recs = append(recs, rec)
	}
	slices.SortFunc(recs, func(a, b *viewSet) int {
		if a.lock != b.lock {
			return cmp.Compare(a.lock, b.lock)
		}
		return cmp.Compare(a.thread, b.thread)
	})
	for lo := 0; lo < len(recs); {
		hi := lo + 1
		for hi < len(recs) && recs[hi].lock == recs[lo].lock {
			hi++
		}
		group := recs[lo:hi] // one lock's records, by thread
		for _, r1 := range group {
			d.maximal = maximalViews(r1.views, d.maximal[:0])
			for _, r2 := range group {
				if r1 == r2 {
					continue
				}
				for _, m := range d.maximal {
					if len(m.keys) < d.cfg.MinViewSize {
						continue
					}
					if bad := d.violates(m, r2.views); bad != nil {
						d.report(r1.lock, m, bad)
					}
				}
			}
		}
		lo = hi
	}
}

// maximalViews appends to out the views not strictly contained in another
// view of the same thread, in their recorded order.
func maximalViews(vs []*view, out []*view) []*view {
	for _, v := range vs {
		maximal := true
		for _, w := range vs {
			if len(v.keys) < len(w.keys) && subset(v.keys, w.keys) {
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

// inter is one non-empty intersection of a maximal view with another
// thread's view: the keys d.arena[lo:hi] and the view they came from.
type inter struct {
	lo, hi int32
	src    *view
}

func byLen(a, b inter) int { return int((a.hi - a.lo) - (b.hi - b.lo)) }

// violates checks whether the other thread's views intersect m in a chain;
// it returns one offending view when they do not: the second member of the
// first incomparable pair (i<j, in others' order), so that the view blamed
// does not depend on how the chain was tested.
func (d *Detector) violates(m *view, others []*view) *view {
	d.intersect(m, others)
	d.sorted = append(d.sorted[:0], d.inters...)
	if isChain(d.arena, d.sorted) {
		return nil
	}
	arena, inters := d.arena, d.inters
	for i := 0; i < len(inters); i++ {
		a := arena[inters[i].lo:inters[i].hi]
		for j := i + 1; j < len(inters); j++ {
			b := arena[inters[j].lo:inters[j].hi]
			if !subset(a, b) && !subset(b, a) {
				return inters[j].src
			}
		}
	}
	return nil
}

// intersect sets d.inters to m's non-empty intersections with others, in
// others' order, their keys in d.arena.
func (d *Detector) intersect(m *view, others []*view) {
	arena, inters := d.arena[:0], d.inters[:0]
	for _, o := range others {
		lo := int32(len(arena))
		arena = appendIntersect(arena, m.keys, o.keys)
		if hi := int32(len(arena)); hi > lo {
			inters = append(inters, inter{lo: lo, hi: hi, src: o})
		}
	}
	d.arena, d.inters = arena, inters
}

// isChain reports whether the intersections xs (keys in arena) are totally
// ordered by inclusion. It sorts xs by size and checks that each is a subset
// of the next. That holds iff the family is a chain: if it holds, inclusion
// is transitive along the sorted order; conversely, in a chain any two
// neighbours a, b with |a| <= |b| satisfy a ⊆ b or b ⊆ a, and b ⊆ a with
// |a| <= |b| means a = b. So a chain costs O(k log k) plus one merge per
// neighbour pair, not the k²/2 pairs of the scan in violates.
func isChain(arena []varKey, xs []inter) bool {
	slices.SortFunc(xs, byLen)
	for i := 1; i < len(xs); i++ {
		a, b := xs[i-1], xs[i]
		if !subset(arena[a.lo:a.hi], arena[b.lo:b.hi]) {
			return false
		}
	}
	return true
}

// subset reports whether the sorted keys a are all in the sorted keys b.
func subset(a, b []varKey) bool {
	if len(a) > len(b) {
		return false
	}
	j := 0
	for _, k := range a {
		for j < len(b) && varKeyLess(b[j], k) {
			j++
		}
		if j == len(b) || b[j] != k {
			return false
		}
		j++
	}
	return true
}

// appendIntersect appends the keys common to the sorted a and b to dst, in
// order.
func appendIntersect(dst, a, b []varKey) []varKey {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			dst = append(dst, a[i])
			i++
			j++
		case varKeyLess(a[i], b[j]):
			i++
		default:
			j++
		}
	}
	return dst
}

func (d *Detector) report(l trace.LockID, m, bad *view) {
	d.reports++
	d.col.Add(report.Warning{
		Tool:      d.cfg.Tool,
		Kind:      report.KindHighLevel,
		Addr:      m.addr,
		Block:     m.block,
		Stack:     m.stack,
		PrevStack: bad.stack,
		State: fmt.Sprintf("lock L%d: a view of %d variable(s) is split inconsistently by another thread",
			l, len(m.keys)),
	})
}

var _ trace.Sink = (*Detector)(nil)
