// Package vectorclock implements a DJIT-style happens-before race detector
// [6] — the comparison baseline discussed in §2.2 of the paper.
//
// Each thread carries a vector clock; lock releases/acquires, thread
// create/join, queue put/get, condition signal/wait and semaphore post/wait
// transfer clocks. A race is two conflicting accesses (same location, at
// least one write) that are unordered by the resulting happens-before
// relation. Unlike the lock-set algorithm, DJIT reports only *apparent*
// races on the observed execution: it misses lock-discipline violations that
// happened to be ordered by the schedule (the paper's point that DJIT
// "detects data races on a subset of shared locations that are reported by
// the lock-set approach").
//
// As the paper notes for [12], treating condition signal->wait as
// happens-before is not sound in general; the Cond edge can be disabled via
// Config.Edges to study that difference.
//
// Despite the similar name, this package is the DETECTOR: a trace.Shadow of
// per-granule cells, the race check on each access and its reports. The
// vector-clock DATATYPE lives in internal/vclock, and so do the two parts
// shared with the hybrid detector: the happens-before core that advances the
// thread clocks over synchronisation events (vclock.HB, which also orders the
// lock-set detector's thread segments) and the FastTrack-style epoch cell
// with its same-epoch fast paths (vclock.Cell).
package vectorclock

import (
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Config parameterises the detector.
type Config struct {
	// Tool is the report name; defaults to "djit".
	Tool string
	// Edges selects which synchronisation edges establish happens-before.
	// Defaults to trace.MaskFull. Program/Create/Join are always honoured.
	Edges trace.EdgeMask
	// LockEdges enables release->acquire edges on mutexes and rwlocks
	// (standard DJIT behaviour). DefaultConfig sets it.
	LockEdges bool
	// Granule is the shadow granularity in bytes (default 4).
	Granule int
	// FirstRaceOnly mirrors DJIT's "detects only the first apparent data
	// race" per location.
	FirstRaceOnly bool
}

func (c Config) withDefaults() Config {
	if c.Tool == "" {
		c.Tool = "djit"
	}
	if c.Edges == 0 {
		c.Edges = trace.MaskFull
	}
	if c.Granule <= 0 {
		c.Granule = 4
	}
	return c
}

// DefaultConfig returns the standard DJIT configuration.
func DefaultConfig() Config {
	return Config{LockEdges: true, FirstRaceOnly: true}.withDefaults()
}

// Detector is the vector-clock race detector tool: the shared
// happens-before core (vclock.HB) plus slab-backed per-block vclock.Cells.
type Detector struct {
	vclock.HB
	cfg    Config
	col    trace.Reporter
	shadow trace.Shadow[vclock.Cell]
	races  int
}

// Spec registers the detector with the analysis engine's tool registry.
// Each call of its Factory builds an independent detector owning its clocks
// and shadow memory outright. Like the lock-set detector it is block-routed:
// a core race detector the overload ladder never sheds.
func Spec(cfg Config) trace.ToolSpec {
	cfg = cfg.withDefaults()
	return trace.ToolSpec{
		Name:    cfg.Tool,
		Routing: trace.RouteBlock,
		Factory: func(col trace.Reporter) trace.Sink { return New(cfg, col) },
	}
}

// New creates a DJIT detector writing to col.
func New(cfg Config, col trace.Reporter) *Detector {
	cfg = cfg.withDefaults()
	return &Detector{
		HB:  vclock.HB{Edges: cfg.Edges, LockEdges: cfg.LockEdges},
		cfg: cfg,
		col: col,
	}
}

// ToolName implements trace.Sink.
func (d *Detector) ToolName() string { return d.cfg.Tool }

// Config returns the effective (defaulted) configuration.
func (d *Detector) Config() Config { return d.cfg }

// DynamicRaces returns the dynamic (pre-dedup) race count.
func (d *Detector) DynamicRaces() int { return d.races }

// Alloc implements trace.Sink.
func (d *Detector) Alloc(b *trace.Block) { d.shadow.Alloc(b, d.cfg.Granule) }

// Free implements trace.Sink.
func (d *Detector) Free(b *trace.Block, _ trace.ThreadID, _ trace.StackID) {
	d.shadow.Free(b.ID)
}

// Access implements trace.Sink: each granule's vclock.Cell checks the access
// and records it. Every unordered access counts as a dynamic race;
// FirstRaceOnly reports only the first per location.
func (d *Detector) Access(a *trace.Access) {
	sh := d.shadow.Block(a.Block)
	lo, hi := trace.Granules(a.Off, a.Size, d.cfg.Granule, len(sh))
	ti := d.Thread(a.Thread)
	me := d.Now(ti)
	epoch := vclock.Epoch{T: int32(ti), C: me.Get(ti)}
	for gi := lo; gi < hi; gi++ {
		c := &sh[gi]
		var prev trace.StackID
		var racy bool
		if a.Kind == trace.Read {
			prev, racy = c.Read(epoch, me, a.Stack)
		} else {
			prev, racy = c.Write(epoch, me, a.Stack)
		}
		if racy {
			d.report(c, a, prev)
		}
	}
}

func (d *Detector) report(c *vclock.Cell, a *trace.Access, prevStack trace.StackID) {
	d.races++
	if d.cfg.FirstRaceOnly && c.Reported {
		return
	}
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
		State:     "unordered with previous access by vector-clock",
	})
}

var _ trace.Sink = (*Detector)(nil)
