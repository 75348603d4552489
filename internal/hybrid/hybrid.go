// Package hybrid implements a lock-set / happens-before hybrid race detector
// in the style of O'Callahan & Choi [12], one of the comparison points of
// §2.2. A location is reported only when (a) the lock-set discipline is
// violated — no common lock protects it — AND (b) the two conflicting
// accesses are not ordered by the happens-before relation built from
// synchronisation events.
//
// The hybrid therefore reports a subset of the pure lock-set findings
// (fewer false positives from deliberate lock-free ordering) while retaining
// more schedule robustness than pure happens-before: an ordered-but-
// unlocked pair is remembered as "suspicious" by its lock-set and still
// reported if any later schedule breaks the ordering.
//
// The detector is built from its two parents' parts rather than copies of
// them: the happens-before core and the epoch cell of DJIT (vclock.HB,
// vclock.Cell), the held lock-sets and bus-lock models of the lock-set
// detector (lockset.Held) and the block shadow all three race detectors
// share (trace.Shadow). What is its own is a candidate lock-set beside each
// granule's epoch cell, and the rule that reports only when both sides
// agree.
package hybrid

import (
	"repro/internal/lockset"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Config parameterises the hybrid detector.
type Config struct {
	// Tool is the report name; defaults to "hybrid".
	Tool string
	// Bus selects the bus-lock model (shared with the lock-set component).
	Bus lockset.BusModel
	// Edges selects the happens-before edges honoured. Default MaskFull.
	Edges trace.EdgeMask
	// Granule is the shadow granularity (default 4).
	Granule int
}

func (c Config) withDefaults() Config {
	if c.Tool == "" {
		c.Tool = "hybrid"
	}
	if c.Edges == 0 {
		c.Edges = trace.MaskFull
	}
	if c.Granule <= 0 {
		c.Granule = 4
	}
	return c
}

// cell is one granule's shadow: the happens-before side DJIT keeps, and the
// candidate lock-set.
type cell struct {
	vclock.Cell
	set    lockset.SetID
	inited bool
}

// Detector is the hybrid tool: the happens-before core it shares with DJIT
// (vclock.HB, always with lock edges), per-thread held lock-sets it shares
// with the lock-set detector (lockset.Held, indexed by HB's dense thread
// number) and slab-backed per-block shadow cells.
type Detector struct {
	vclock.HB
	cfg    Config
	col    trace.Reporter
	sets   *lockset.SetTable
	held   []lockset.Held
	shadow trace.Shadow[cell]
}

// Spec registers the detector with the analysis engine's tool registry. Like
// its two parents the hybrid is block-routed: a core race detector the
// overload ladder never sheds.
func Spec(cfg Config) trace.ToolSpec {
	cfg = cfg.withDefaults()
	return trace.ToolSpec{
		Name:    cfg.Tool,
		Routing: trace.RouteBlock,
		Factory: func(col trace.Reporter) trace.Sink { return New(cfg, col) },
	}
}

// New creates a hybrid detector writing to col.
func New(cfg Config, col trace.Reporter) *Detector {
	cfg = cfg.withDefaults()
	return &Detector{
		HB:   vclock.HB{Edges: cfg.Edges, LockEdges: true},
		cfg:  cfg,
		col:  col,
		sets: lockset.NewSetTable(),
	}
}

// ToolName implements trace.Sink.
func (d *Detector) ToolName() string { return d.cfg.Tool }

// thread returns the dense index of thread t and its held lock-sets.
func (d *Detector) thread(t trace.ThreadID) (int, *lockset.Held) {
	ti := d.Thread(t)
	for len(d.held) <= ti {
		d.held = append(d.held, lockset.NewHeld(d.sets))
	}
	return ti, &d.held[ti]
}

// Acquire implements trace.Sink: the held sets advance by one memoised
// transition edge per variant, and the lock's clock joins the thread's.
func (d *Detector) Acquire(t trace.ThreadID, l trace.LockID, k trace.LockKind, s trace.StackID) {
	_, held := d.thread(t)
	held.Acquire(d.sets, l, k)
	d.HB.Acquire(t, l, k, s)
}

// Release implements trace.Sink.
func (d *Detector) Release(t trace.ThreadID, l trace.LockID, k trace.LockKind, s trace.StackID) {
	_, held := d.thread(t)
	held.Release(d.sets, l)
	d.HB.Release(t, l, k, s)
}

// Alloc implements trace.Sink.
func (d *Detector) Alloc(b *trace.Block) { d.shadow.Alloc(b, d.cfg.Granule) }

// Free implements trace.Sink.
func (d *Detector) Free(b *trace.Block, _ trace.ThreadID, _ trace.StackID) {
	d.shadow.Free(b.ID)
}

// Access implements trace.Sink: report only when the lock-set is empty AND
// the granule's epoch cell finds the access unordered.
func (d *Detector) Access(a *trace.Access) {
	sh := d.shadow.Block(a.Block)
	lo, hi := trace.Granules(a.Off, a.Size, d.cfg.Granule, len(sh))
	ti, held := d.thread(a.Thread)
	anyM, wrM := held.For(d.cfg.Bus, a.Atomic)
	now := d.Now(ti)
	epoch := vclock.Epoch{T: int32(ti), C: now.Get(ti)}
	for gi := lo; gi < hi; gi++ {
		c := &sh[gi]
		// Lock-set side: intersect with the mode-appropriate set.
		eff := anyM
		if a.Kind == trace.Write {
			eff = wrM
		}
		if !c.inited {
			c.set = eff
			c.inited = true
		} else {
			c.set = d.sets.Intersect(c.set, eff)
		}
		disciplineBroken := c.set == lockset.EmptySet

		// Happens-before side.
		var unordered bool
		var prevStack trace.StackID
		if a.Kind == trace.Read {
			prevStack, unordered = c.Read(epoch, now, a.Stack)
		} else {
			prevStack, unordered = c.Write(epoch, now, a.Stack)
		}

		if disciplineBroken && unordered && !c.Reported {
			c.Reported = true
			d.col.Add(report.Warning{
				Tool:      d.cfg.Tool,
				Kind:      report.KindRace,
				Thread:    a.Thread,
				Addr:      a.Addr,
				Block:     a.Block,
				Off:       a.Off,
				Size:      a.Size,
				Access:    a.Kind,
				Stack:     a.Stack,
				PrevStack: prevStack,
				State:     "no common lock and unordered by happens-before",
			})
		}
	}
}

var _ trace.Sink = (*Detector)(nil)
