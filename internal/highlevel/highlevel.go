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

type view struct {
	vars  map[varKey]struct{}
	keys  []varKey      // vars sorted; kept only for recorded views
	stack trace.StackID // acquisition site
	addr  trace.Addr    // representative address (first access)
	block trace.BlockID
}

// viewKey canonicalises a view's variable set into a binary string usable as
// a dedup map key: the varKeys sorted and appended into the caller-owned
// scratch buffers, which are returned for reuse. On the common path — the
// view was seen before — probing seen[string(key)] with the returned bytes
// is allocation-free (the compiler elides the conversion in a map lookup),
// so only genuinely new views pay for a key string.
func viewKey(v *view, scratchKeys []varKey, scratchBuf []byte) ([]varKey, []byte) {
	keys := scratchKeys[:0]
	for k := range v.vars {
		keys = append(keys, k)
	}
	// Insertion sort: views hold a handful of variables, and sort.Slice's
	// closure would allocate on every Release.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && varKeyLess(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	buf := scratchBuf[:0]
	for _, k := range keys {
		buf = append(buf,
			byte(k.block), byte(k.block>>8), byte(k.block>>16), byte(k.block>>24),
			byte(k.gran), byte(k.gran>>8), byte(k.gran>>16), byte(k.gran>>24))
	}
	return keys, buf
}

func varKeyLess(a, b varKey) bool {
	if a.block != b.block {
		return a.block < b.block
	}
	return a.gran < b.gran
}

// Detector is the view-consistency tool. Call Finish after the run to
// perform the analysis (core.Run does this automatically).
type Detector struct {
	trace.BaseSink
	cfg      Config
	col      trace.Reporter
	cells    map[trace.BlockID]int // live blocks' granule counts
	open     map[trace.ThreadID]map[trace.LockID]*view
	views    map[trace.LockID]map[trace.ThreadID][]*view
	viewKeys map[trace.LockID]map[trace.ThreadID]map[string]bool
	finished bool
	reports  int

	// Free list plus per-Release scratch. Critical sections open and close
	// once per Acquire/Release pair, but distinct views per (lock, thread)
	// are bounded by program structure — so recycling the duplicates keeps
	// the steady-state event path allocation-free.
	pool       []*view
	scratchKey []varKey
	scratchBuf []byte

	// Finish's reused buffers: the maximal views of one thread, and per
	// violates call the intersections' keys, their spans and a copy of the
	// spans to sort.
	maximal []*view
	arena   []varKey
	inters  []inter
	sorted  []inter
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
		cfg:      cfg.withDefaults(),
		col:      col,
		cells:    make(map[trace.BlockID]int),
		open:     make(map[trace.ThreadID]map[trace.LockID]*view),
		views:    make(map[trace.LockID]map[trace.ThreadID][]*view),
		viewKeys: make(map[trace.LockID]map[trace.ThreadID]map[string]bool),
	}
}

// ToolName implements trace.Sink.
func (d *Detector) ToolName() string { return d.cfg.Tool }

// Violations returns the number of reported view inconsistencies.
func (d *Detector) Violations() int { return d.reports }

// Acquire implements trace.Sink: opens a fresh view for the critical
// section.
func (d *Detector) Acquire(t trace.ThreadID, l trace.LockID, _ trace.LockKind, stack trace.StackID) {
	m, ok := d.open[t]
	if !ok {
		m = make(map[trace.LockID]*view)
		d.open[t] = m
	}
	if n := len(d.pool); n > 0 {
		v := d.pool[n-1]
		d.pool = d.pool[:n-1]
		clear(v.vars)
		*v = view{vars: v.vars, keys: v.keys[:0], stack: stack}
		m[l] = v
		return
	}
	m[l] = &view{vars: make(map[varKey]struct{}), stack: stack}
}

// Release implements trace.Sink: finalises the critical section's view.
func (d *Detector) Release(t trace.ThreadID, l trace.LockID, _ trace.LockKind, _ trace.StackID) {
	m := d.open[t]
	v, ok := m[l]
	if !ok {
		return
	}
	delete(m, l)
	if len(v.vars) == 0 {
		d.pool = append(d.pool, v)
		return
	}
	byThread, ok := d.views[l]
	if !ok {
		byThread = make(map[trace.ThreadID][]*view)
		d.views[l] = byThread
		d.viewKeys[l] = make(map[trace.ThreadID]map[string]bool)
	}
	seen := d.viewKeys[l][t]
	if seen == nil {
		seen = make(map[string]bool)
		d.viewKeys[l][t] = seen
	}
	keys, buf := viewKey(v, d.scratchKey, d.scratchBuf)
	d.scratchKey, d.scratchBuf = keys, buf
	if seen[string(buf)] {
		d.pool = append(d.pool, v)
		return // identical view already recorded
	}
	seen[string(buf)] = true
	v.keys = append(v.keys[:0], keys...)
	byThread[t] = append(byThread[t], v)
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
	m := d.open[a.Thread]
	if len(m) == 0 {
		return
	}
	lo, hi := trace.Granules(a.Off, a.Size, d.cfg.Granule, d.cells[a.Block])
	if lo >= hi {
		return
	}
	for _, v := range m {
		if len(v.vars) == 0 {
			v.addr = a.Addr
			v.block = a.Block
		}
		for g := lo; g < hi; g++ {
			v.vars[varKey{block: a.Block, gran: uint32(g)}] = struct{}{}
		}
	}
}

// Finish runs the view-consistency analysis over all recorded views. It is
// idempotent.
func (d *Detector) Finish() {
	if d.finished {
		return
	}
	d.finished = true
	locks := make([]trace.LockID, 0, len(d.views))
	for l := range d.views {
		locks = append(locks, l)
	}
	slices.Sort(locks)
	var threads []trace.ThreadID
	for _, l := range locks {
		byThread := d.views[l]
		threads = threads[:0]
		for t := range byThread {
			threads = append(threads, t)
		}
		slices.Sort(threads)
		for _, t1 := range threads {
			d.maximal = maximalViews(byThread[t1], d.maximal[:0])
			for _, t2 := range threads {
				if t1 == t2 {
					continue
				}
				for _, m := range d.maximal {
					if len(m.keys) < d.cfg.MinViewSize {
						continue
					}
					if bad := d.violates(m, byThread[t2]); bad != nil {
						d.report(l, m, bad)
					}
				}
			}
		}
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
