// Package lockset implements the paper's core contribution: the Eraser
// lock-set algorithm [14] as implemented in Helgrind, extended with
//
//   - the memory-location state machine of Fig. 1 (NEW → EXCLUSIVE →
//     SHARED / SHARED-MODIFIED, warnings only in SHARED-MODIFIED),
//   - thread segments from Visual Threads [5] (Fig. 2): EXCLUSIVE ownership
//     transfers between happens-before-ordered segments,
//   - read-write-lock awareness (locks "held in any mode" vs. "held in write
//     mode", §2.3.2),
//   - both hardware bus-lock emulations (§3.1/§4.2.2): the original single
//     pseudo-mutex model and the corrected read-write-lock model (HWLC),
//   - the automatic destructor annotation (§3.1/§4.2.1): the HG_DESTRUCT
//     client request marks an object exclusive to the deleting thread (DR).
//
// The three detector configurations evaluated in Fig. 5/6 — Original, HWLC
// and HWLC+DR — are exposed as constructors.
package lockset

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// BusModel selects how the x86 LOCK prefix (hardware bus lock) is emulated.
type BusModel uint8

// Bus-lock emulation models.
const (
	// BusNone ignores bus-locked accesses entirely (ablation).
	BusNone BusModel = iota
	// BusSingleMutex is the original Helgrind model: a pseudo-mutex is held
	// (in both modes) exactly for the duration of a LOCK-prefixed
	// instruction. Plain reads never hold it, so mixed plain-read /
	// atomic-write locations (COW string reference counters) are reported.
	BusSingleMutex
	// BusRWLock is the paper's correction (HWLC): the bus lock is a
	// read-write lock held for reading by EVERY read access and for writing
	// by bus-locked writes. Locations whose writes are all atomic then keep
	// the bus lock in their candidate set and stop being reported.
	BusRWLock
)

func (m BusModel) String() string {
	switch m {
	case BusNone:
		return "none"
	case BusSingleMutex:
		return "single-mutex"
	default:
		return "rwlock"
	}
}

// Config parameterises the detector.
type Config struct {
	// Tool is the name used in reports; defaults to "helgrind".
	Tool string
	// Bus selects the bus-lock emulation.
	Bus BusModel
	// Destruct honours HG_DESTRUCT client requests (the DR improvement).
	Destruct bool
	// ThreadSegments enables the Visual Threads segment refinement. When
	// false, EXCLUSIVE ownership is per-thread, as in original Eraser.
	ThreadSegments bool
	// Mask selects which queue/cond/sem segment edges count for
	// happens-before; Program, Create and Join are always honoured, which is
	// all Helgrind understands (trace.MaskHelgrind). trace.MaskFull adds the
	// future-work extension that removes the Fig. 11 thread-pool false
	// positives.
	Mask trace.EdgeMask
	// Granule is the shadow-state granularity in bytes (default 4).
	Granule int
}

// IsZero reports whether c is the zero configuration — no field set at all.
// core.Run replaces only the zero value with the paper's strongest default
// (HWLC+DR); a configuration with any field set explicitly (Tool, Granule,
// ThreadSegments, ...) is taken at face value, so an intentionally minimal
// detector — e.g. Config{Tool: "bare"} — is never silently upgraded.
func (c Config) IsZero() bool { return c == Config{} }

func (c Config) withDefaults() Config {
	if c.Tool == "" {
		c.Tool = "helgrind"
	}
	if c.Mask == 0 {
		c.Mask = trace.MaskHelgrind
	}
	if c.Granule <= 0 {
		c.Granule = 4
	}
	return c
}

// ConfigOriginal is the stock Helgrind configuration of the paper's first
// experimental run (Fig. 6 column "Original").
func ConfigOriginal() Config {
	return Config{Bus: BusSingleMutex, Destruct: false, ThreadSegments: true}
}

// ConfigHWLC adds the corrected hardware bus lock (Fig. 6 column "HWLC").
func ConfigHWLC() Config {
	return Config{Bus: BusRWLock, Destruct: false, ThreadSegments: true}
}

// ConfigHWLCDR additionally honours the destructor annotation (Fig. 6 column
// "HWLC+DR").
func ConfigHWLCDR() Config {
	return Config{Bus: BusRWLock, Destruct: true, ThreadSegments: true}
}

// state is the Fig. 1 state machine.
type state uint8

const (
	stNew state = iota
	stExclusive
	stSharedRead
	stSharedMod
)

func (s state) String() string {
	switch s {
	case stNew:
		return "new"
	case stExclusive:
		return "exclusive"
	case stSharedRead:
		return "shared RO"
	default:
		return "shared modified"
	}
}

// noLocksDesc is each state's "Previous state" text for an empty lock-set,
// built once from String.
var noLocksDesc [stSharedMod + 1]string

func init() {
	for s := range noLocksDesc {
		noLocksDesc[s] = state(s).String() + ", no locks"
	}
}

// gran is the per-granule shadow state.
type gran struct {
	st       state
	ownerTh  trace.ThreadID
	ownerSeg trace.SegmentID
	set      SetID
	benign   bool
}

// Held is one thread's held locks as four interned lock-set variants
// (any/write mode, with/without the bus pseudo-lock), shared by the lock-set
// and hybrid detectors. The sets are maintained incrementally: acquire and
// release walk a single memoised transition edge per variant in the SetTable
// instead of re-sorting and re-interning the held set, so steady-state lock
// traffic costs a few map hits and no allocation.
type Held struct {
	anyMode      SetID
	anyPlusBus   SetID
	writeMode    SetID
	writePlusBus SetID
}

// NewHeld returns the held sets of a thread holding no lock. The zero SetID
// is the empty set, which is right for any/write mode, but the plus-bus
// variants start at {bus}.
func NewHeld(sets *SetTable) Held {
	bus := sets.Add(EmptySet, trace.BusLock)
	return Held{anyPlusBus: bus, writePlusBus: bus}
}

// Acquire adds lock l, taken in mode k. Re-acquiring a held lock with a
// different kind reclassifies it, matching the last-kind-wins semantics of
// tracking held locks in a map: a downgrade to read mode drops it from the
// write-mode set.
func (h *Held) Acquire(sets *SetTable, l trace.LockID, k trace.LockKind) {
	h.anyMode = sets.Add(h.anyMode, l)
	h.anyPlusBus = sets.Add(h.anyMode, trace.BusLock)
	if k == trace.Mutex || k == trace.WLock {
		h.writeMode = sets.Add(h.writeMode, l)
	} else {
		h.writeMode = sets.Remove(h.writeMode, l)
	}
	h.writePlusBus = sets.Add(h.writeMode, trace.BusLock)
}

// Release drops lock l.
func (h *Held) Release(sets *SetTable, l trace.LockID) {
	h.anyMode = sets.Remove(h.anyMode, l)
	h.anyPlusBus = sets.Add(h.anyMode, trace.BusLock)
	h.writeMode = sets.Remove(h.writeMode, l)
	h.writePlusBus = sets.Add(h.writeMode, trace.BusLock)
}

// For returns the effective (any-mode, write-mode) lock-sets of an access,
// atomic when it is bus-locked, under the given bus-lock model.
func (h *Held) For(bus BusModel, atomic bool) (anyM, wrM SetID) {
	anyM, wrM = h.anyMode, h.writeMode
	switch bus {
	case BusSingleMutex:
		// The pseudo-mutex is held (in both modes) only during the
		// LOCK-prefixed instruction itself.
		if atomic {
			anyM, wrM = h.anyPlusBus, h.writePlusBus
		}
	case BusRWLock:
		// Every read holds the bus lock in read mode; only bus-locked
		// writes hold it in write mode.
		anyM = h.anyPlusBus
		if atomic {
			wrM = h.writePlusBus
		}
	}
	return anyM, wrM
}

// threadLocks is one thread's held locks plus the segment it is in.
type threadLocks struct {
	Held
	curSeg trace.SegmentID
}

// Detector is the lock-set race detector tool. Thread segments are ordered
// by vclock.HB, and per-thread state lives in a flat slice indexed by HB's
// dense thread number; block shadow is a trace.Shadow, recycled when the
// block is freed, so shadow memory tracks the live heap rather than the
// allocation history.
type Detector struct {
	trace.BaseSink
	cfg     Config
	sets    *SetTable
	hb      vclock.HB // not embedded: it is fed only ThreadStart and Segment
	col     trace.Reporter
	threads []threadLocks
	shadow  trace.Shadow[gran]
	races   int // dynamic race reports, pre-dedup
}

// Spec registers the detector with the analysis engine's tool registry.
// Each call of its Factory builds an independent detector owning all of its
// state (set table, segment clocks, shadow memory). The detector is
// block-routed: it is one of the paper's core detectors, which the overload
// ladder never sheds.
func Spec(cfg Config) trace.ToolSpec {
	cfg = cfg.withDefaults()
	return trace.ToolSpec{
		Name:    cfg.Tool,
		Routing: trace.RouteBlock,
		Factory: func(col trace.Reporter) trace.Sink { return New(cfg, col) },
	}
}

// New creates a detector writing to the given collector.
func New(cfg Config, col trace.Reporter) *Detector {
	cfg = cfg.withDefaults()
	return &Detector{
		cfg:  cfg,
		sets: NewSetTable(),
		hb:   vclock.HB{Edges: cfg.Mask},
		col:  col,
	}
}

// ToolName implements trace.Sink.
func (d *Detector) ToolName() string { return d.cfg.Tool }

// Config returns the detector's configuration.
func (d *Detector) Config() Config { return d.cfg }

// Sets exposes the lock-set intern table (for tests and diagnostics).
func (d *Detector) Sets() *SetTable { return d.sets }

// DynamicRaces returns the number of dynamic (pre-deduplication) race
// reports.
func (d *Detector) DynamicRaces() int { return d.races }

func (d *Detector) thread(id trace.ThreadID) *threadLocks {
	ti := d.hb.Thread(id)
	for len(d.threads) <= ti {
		d.threads = append(d.threads, threadLocks{Held: NewHeld(d.sets)})
	}
	return &d.threads[ti]
}

// Acquire implements trace.Sink.
func (d *Detector) Acquire(t trace.ThreadID, l trace.LockID, k trace.LockKind, _ trace.StackID) {
	d.thread(t).Acquire(d.sets, l, k)
}

// Release implements trace.Sink.
func (d *Detector) Release(t trace.ThreadID, l trace.LockID, _ trace.LockKind, _ trace.StackID) {
	d.thread(t).Release(d.sets, l)
}

// ThreadStart implements trace.Sink: it carries the create edge.
func (d *Detector) ThreadStart(t, parent trace.ThreadID) { d.hb.ThreadStart(t, parent) }

// Segment implements trace.Sink.
func (d *Detector) Segment(ss *trace.SegmentStart) {
	d.hb.Segment(ss)
	d.thread(ss.Thread).curSeg = ss.Seg
}

// Alloc implements trace.Sink.
func (d *Detector) Alloc(b *trace.Block) { d.shadow.Alloc(b, d.cfg.Granule) }

// Free implements trace.Sink. Freed memory is unaddressable; races on it are
// the memcheck tool's business (§4.2.1).
func (d *Detector) Free(b *trace.Block, _ trace.ThreadID, _ trace.StackID) {
	d.shadow.Free(b.ID)
}

// Access implements trace.Sink: the Eraser state machine with thread
// segments.
func (d *Detector) Access(a *trace.Access) {
	sh := d.shadow.Block(a.Block)
	lo, hi := trace.Granules(a.Off, a.Size, d.cfg.Granule, len(sh))
	anyM, wrM := d.thread(a.Thread).For(d.cfg.Bus, a.Atomic)
	for gi := lo; gi < hi; gi++ {
		d.step(&sh[gi], a, anyM, wrM)
	}
}

// step advances one granule through the Fig. 1 state machine.
func (d *Detector) step(g *gran, a *trace.Access, anyM, wrM SetID) {
	if g.benign {
		return
	}
	switch g.st {
	case stNew:
		g.st = stExclusive
		g.ownerTh = a.Thread
		g.ownerSeg = a.Seg

	case stExclusive:
		if g.ownerTh == a.Thread {
			// Same thread: ownership follows program order.
			g.ownerSeg = a.Seg
			return
		}
		if d.cfg.ThreadSegments && d.hb.SegmentBefore(g.ownerSeg, a.Seg) {
			// Visual Threads refinement: non-overlapping segments keep the
			// location exclusive; the new segment becomes the owner.
			g.ownerTh = a.Thread
			g.ownerSeg = a.Seg
			return
		}
		// Concurrent access by another thread: enter a shared state and
		// initialise the lock-set with the locks held now (delayed
		// initialisation — the §4.3 false-negative source).
		if a.Kind == trace.Read {
			g.st = stSharedRead
			g.set = d.sets.Intersect(Universe, anyM)
			return
		}
		g.st = stSharedMod
		g.set = d.sets.Intersect(Universe, wrM)
		if g.set == EmptySet {
			d.report(g, a, stExclusive)
		}

	case stSharedRead:
		if a.Kind == trace.Read {
			g.set = d.sets.Intersect(g.set, anyM)
			return
		}
		prevSet := g.set
		g.st = stSharedMod
		g.set = d.sets.Intersect(g.set, wrM)
		if g.set == EmptySet {
			d.reportWithSet(g, a, stSharedRead, prevSet)
		}

	case stSharedMod:
		if a.Kind == trace.Read {
			g.set = d.sets.Intersect(g.set, anyM)
		} else {
			g.set = d.sets.Intersect(g.set, wrM)
		}
		if g.set == EmptySet {
			d.report(g, a, stSharedMod)
		}
	}
}

// Request implements trace.Sink: client requests (Fig. 4).
func (d *Detector) Request(r *trace.Request) {
	sh := d.shadow.Block(r.Block)
	lo, hi := trace.Granules(r.Off, r.Size, d.cfg.Granule, len(sh))
	for gi := lo; gi < hi; gi++ {
		g := &sh[gi]
		switch r.Kind {
		case trace.ReqDestruct:
			if !d.cfg.Destruct {
				continue
			}
			// Mark the object's memory exclusively owned by the deleting
			// thread. Accesses by other threads during destruction are
			// still detected, because they re-enter the shared states.
			g.st = stExclusive
			g.ownerTh = r.Thread
			g.ownerSeg = d.thread(r.Thread).curSeg
			g.set = EmptySet
		case trace.ReqBenign:
			g.benign = true
		case trace.ReqCleanMemory:
			*g = gran{}
		}
	}
}

func (d *Detector) report(g *gran, a *trace.Access, prev state) {
	d.reportWithSet(g, a, prev, g.set)
}

func (d *Detector) reportWithSet(g *gran, a *trace.Access, prev state, prevSet SetID) {
	d.races++
	// Every violating access reports; the collector deduplicates per call
	// stack, which matches how Helgrind output is triaged (and suppressed)
	// in practice — by stack pattern, one "location" per distinct site.
	var stateDesc string
	switch {
	case prev == stExclusive:
		stateDesc = fmt.Sprintf("exclusive to thread %d", g.ownerTh)
	case prevSet == EmptySet:
		// Every racy access in SHARED-MODIFIED lands here: a constant keeps
		// the folded repeat free of allocation.
		stateDesc = noLocksDesc[prev]
	default:
		stateDesc = fmt.Sprintf("%s, %d candidate lock(s)", prev, d.sets.Size(prevSet))
	}
	d.col.Add(report.Warning{
		Tool:   d.cfg.Tool,
		Kind:   report.KindRace,
		Thread: a.Thread,
		Addr:   a.Addr,
		Block:  a.Block,
		Off:    a.Off,
		Size:   a.Size,
		Access: a.Kind,
		Stack:  a.Stack,
		State:  stateDesc,
	})
}

var _ trace.Sink = (*Detector)(nil)
