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
	"sort"

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
		*v = view{vars: v.vars, stack: stack}
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
	byThread[t] = append(byThread[t], v)
}

// Access implements trace.Sink: adds the location to every critical section
// the thread currently has open.
func (d *Detector) Access(a *trace.Access) {
	m := d.open[a.Thread]
	if len(m) == 0 {
		return
	}
	lo := a.Off / uint32(d.cfg.Granule)
	hi := (a.Off + a.Size - 1) / uint32(d.cfg.Granule)
	for _, v := range m {
		if len(v.vars) == 0 {
			v.addr = a.Addr
			v.block = a.Block
		}
		for g := lo; g <= hi; g++ {
			v.vars[varKey{block: a.Block, gran: g}] = struct{}{}
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
	sort.Slice(locks, func(i, j int) bool { return locks[i] < locks[j] })
	for _, l := range locks {
		byThread := d.views[l]
		threads := make([]trace.ThreadID, 0, len(byThread))
		for t := range byThread {
			threads = append(threads, t)
		}
		sort.Slice(threads, func(i, j int) bool { return threads[i] < threads[j] })
		for _, t1 := range threads {
			maximal := maximalViews(byThread[t1])
			for _, t2 := range threads {
				if t1 == t2 {
					continue
				}
				for _, m := range maximal {
					if len(m.vars) < d.cfg.MinViewSize {
						continue
					}
					if bad := violates(m, byThread[t2]); bad != nil {
						d.report(l, m, bad)
					}
				}
			}
		}
	}
}

// maximalViews returns the views not strictly contained in another view of
// the same thread.
func maximalViews(vs []*view) []*view {
	var out []*view
	for i, v := range vs {
		maximal := true
		for j, w := range vs {
			if i != j && subset(v.vars, w.vars) && len(v.vars) < len(w.vars) {
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

// violates checks whether the other thread's views intersect m in a chain;
// it returns one offending view when they do not.
func violates(m *view, others []*view) *view {
	type inter struct {
		set map[varKey]struct{}
		src *view
	}
	var inters []inter
	for _, o := range others {
		x := intersect(m.vars, o.vars)
		if len(x) > 0 {
			inters = append(inters, inter{set: x, src: o})
		}
	}
	for i := 0; i < len(inters); i++ {
		for j := i + 1; j < len(inters); j++ {
			a, b := inters[i], inters[j]
			if !subset(a.set, b.set) && !subset(b.set, a.set) {
				return b.src
			}
		}
	}
	return nil
}

func subset(a, b map[varKey]struct{}) bool {
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

func intersect(a, b map[varKey]struct{}) map[varKey]struct{} {
	out := make(map[varKey]struct{})
	for k := range a {
		if _, ok := b[k]; ok {
			out[k] = struct{}{}
		}
	}
	return out
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
			l, len(m.vars)),
	})
}

var _ trace.Sink = (*Detector)(nil)
