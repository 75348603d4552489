package scenario

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/vectorclock"
)

// refAccess records one side of a potential conflict.
type refAccess struct {
	epoch vclock.Epoch
	stack trace.StackID
}

// refDJITCell is the per-granule shadow: the last write epoch and, per
// thread, the last read epoch (compacted: a full VC plus one stack).
// readsClean means the read clock holds no reads newer than the last write,
// which lets repeated writes at one epoch skip the read-set scan entirely.
type refDJITCell struct {
	lastWrite  refAccess
	reads      vclock.VC
	lastRead   refAccess
	reported   bool
	readsClean bool
}

// refDJIT is the DJIT detector as it stood before the happens-before core
// moved into vclock.HB and the block shadow into trace.Shadow: every clock,
// index and shadow array is its own copy. It is kept verbatim, apart from
// renames and the read-epoch reset on writes that vclock.Cell.Write has, as
// the test-only oracle FuzzDetectorOracle compares the production
// vectorclock.Detector against.
type refDJIT struct {
	trace.BaseSink
	cfg     vectorclock.Config
	col     trace.Reporter
	thIx    trace.Dense
	lkIx    trace.Dense
	syIx    trace.Dense
	segIx   trace.Dense
	blkIx   trace.Dense
	threads []vclock.VC
	locks   []vclock.VC
	syncs   []vclock.VC
	segVC   []vclock.VC // clocks captured at segment starts
	msgs    map[int64]vclock.VC
	msgPool []vclock.VC // retired message clocks, reused on the next put
	shadow  [][]refDJITCell
	slab    trace.Slab[refDJITCell]
	races   int
}

// newRefDJIT creates the oracle with vectorclock.Config's defaults.
func newRefDJIT(cfg vectorclock.Config, col trace.Reporter) *refDJIT {
	if cfg.Tool == "" {
		cfg.Tool = "djit"
	}
	if cfg.Edges == 0 {
		cfg.Edges = trace.MaskFull
	}
	if cfg.Granule <= 0 {
		cfg.Granule = 4
	}
	return &refDJIT{
		cfg:  cfg,
		col:  col,
		msgs: make(map[int64]vclock.VC),
	}
}

// ToolName implements trace.Sink.
func (d *refDJIT) ToolName() string { return d.cfg.Tool }

// DynamicRaces returns the dynamic (pre-dedup) race count.
func (d *refDJIT) DynamicRaces() int { return d.races }

// tIdx returns the dense index for a thread, initialising its clock (one
// self-tick) on first sight. Thread clocks — and every clock derived from
// them — are component-indexed by this dense number, not the raw ThreadID.
func (d *refDJIT) tIdx(t trace.ThreadID) int {
	ti := d.thIx.Index(int32(t))
	for len(d.threads) <= ti {
		d.threads = append(d.threads, nil)
	}
	if d.threads[ti] == nil {
		d.threads[ti] = vclock.New(ti).Tick(ti)
	}
	return ti
}

func refGrowVCs(s []vclock.VC, i int) []vclock.VC {
	for len(s) <= i {
		s = append(s, nil)
	}
	return s
}

// ThreadStart implements trace.Sink: the child inherits the parent's clock
// (create edge); both tick.
func (d *refDJIT) ThreadStart(t, parent trace.ThreadID) {
	ti := d.tIdx(t)
	if parent != 0 {
		pi := d.tIdx(parent)
		d.threads[ti] = d.threads[ti].Join(d.threads[pi])
		d.threads[pi] = d.threads[pi].Tick(pi)
	}
	d.threads[ti] = d.threads[ti].Tick(ti)
}

// Segment implements trace.Sink. Join and (optionally) queue/cond/sem edges
// are delivered as segment edges; DJIT folds them into the thread clock.
func (d *refDJIT) Segment(ss *trace.SegmentStart) {
	ti := d.tIdx(ss.Thread)
	me := d.threads[ti]
	for _, e := range ss.In {
		switch e.Kind {
		case trace.Program, trace.Create:
			// Program order is implicit; Create handled in ThreadStart.
		case trace.Join:
			if si := d.segIx.Lookup(int32(e.From)); si >= 0 && d.segVC[si] != nil {
				me = me.Join(d.segVC[si])
			}
		case trace.Queue, trace.Cond, trace.Sem:
			if !d.cfg.Edges.Has(e.Kind) {
				continue
			}
			if si := d.segIx.Lookup(int32(e.From)); si >= 0 && d.segVC[si] != nil {
				me = me.Join(d.segVC[si])
			}
		}
	}
	me = me.Tick(ti)
	d.threads[ti] = me
	si := d.segIx.Index(int32(ss.Seg))
	d.segVC = refGrowVCs(d.segVC, si)
	d.segVC[si] = vclock.CopyInto(d.segVC[si], me)
}

// ThreadExit implements trace.Sink: capture the final clock so joins can
// synchronise with it (the last segment VC is already recorded).
func (d *refDJIT) ThreadExit(t trace.ThreadID) {}

// Acquire implements trace.Sink: acquire joins the lock's clock into the
// thread (release->acquire edge).
func (d *refDJIT) Acquire(t trace.ThreadID, l trace.LockID, k trace.LockKind, _ trace.StackID) {
	if !d.cfg.LockEdges {
		return
	}
	if li := d.lkIx.Lookup(int32(l)); li >= 0 && d.locks[li] != nil {
		ti := d.tIdx(t)
		d.threads[ti] = d.threads[ti].Join(d.locks[li])
	}
}

// Release implements trace.Sink: the lock's clock becomes the releaser's
// (reusing the lock's previous clock storage); the releaser ticks.
func (d *refDJIT) Release(t trace.ThreadID, l trace.LockID, k trace.LockKind, _ trace.StackID) {
	if !d.cfg.LockEdges {
		return
	}
	ti := d.tIdx(t)
	me := d.threads[ti]
	li := d.lkIx.Index(int32(l))
	d.locks = refGrowVCs(d.locks, li)
	d.locks[li] = vclock.CopyInto(d.locks[li], me)
	d.threads[ti] = me.Tick(ti)
}

// Sync implements trace.Sink: message-precise queue edges (put VC joined at
// the matching get). Message clocks cycle through a pool: a clock retired by
// a get donates its array to the next put.
func (d *refDJIT) Sync(ev *trace.SyncEvent) {
	switch ev.Op {
	case trace.QueuePut:
		if d.cfg.Edges.Has(trace.Queue) {
			ti := d.tIdx(ev.Thread)
			var mv vclock.VC
			if n := len(d.msgPool); n > 0 {
				mv = d.msgPool[n-1]
				d.msgPool = d.msgPool[:n-1]
			}
			d.msgs[ev.Msg] = vclock.CopyInto(mv, d.threads[ti])
		}
	case trace.QueueGet:
		if d.cfg.Edges.Has(trace.Queue) {
			if mv, ok := d.msgs[ev.Msg]; ok {
				ti := d.tIdx(ev.Thread)
				d.threads[ti] = d.threads[ti].Join(mv)
				delete(d.msgs, ev.Msg)
				d.msgPool = append(d.msgPool, mv)
			}
		}
	case trace.CondSignal, trace.CondBroadcast:
		if d.cfg.Edges.Has(trace.Cond) {
			ti := d.tIdx(ev.Thread)
			me := d.threads[ti]
			si := d.syIx.Index(int32(ev.Obj))
			d.syncs = refGrowVCs(d.syncs, si)
			d.syncs[si] = d.syncs[si].Join(me)
			d.threads[ti] = me.Tick(ti)
		}
	case trace.CondWaitDone:
		if d.cfg.Edges.Has(trace.Cond) {
			if si := d.syIx.Lookup(int32(ev.Obj)); si >= 0 && d.syncs[si] != nil {
				ti := d.tIdx(ev.Thread)
				d.threads[ti] = d.threads[ti].Join(d.syncs[si])
			}
		}
	case trace.SemPost:
		if d.cfg.Edges.Has(trace.Sem) {
			ti := d.tIdx(ev.Thread)
			me := d.threads[ti]
			si := d.syIx.Index(int32(ev.Obj))
			d.syncs = refGrowVCs(d.syncs, si)
			d.syncs[si] = d.syncs[si].Join(me)
			d.threads[ti] = me.Tick(ti)
		}
	case trace.SemWaitDone:
		if d.cfg.Edges.Has(trace.Sem) {
			if si := d.syIx.Lookup(int32(ev.Obj)); si >= 0 && d.syncs[si] != nil {
				ti := d.tIdx(ev.Thread)
				d.threads[ti] = d.threads[ti].Join(d.syncs[si])
			}
		}
	}
}

// Alloc implements trace.Sink.
func (d *refDJIT) Alloc(b *trace.Block) {
	n := (int(b.Size) + d.cfg.Granule - 1) / d.cfg.Granule
	bi := d.blkIx.Index(int32(b.ID))
	for len(d.shadow) <= bi {
		d.shadow = append(d.shadow, nil)
	}
	d.shadow[bi] = d.slab.Get(n)
}

// Free implements trace.Sink: the shadow cells return to the slab and the
// dense slot is recycled (block IDs are never reused).
func (d *refDJIT) Free(b *trace.Block, _ trace.ThreadID, _ trace.StackID) {
	if bi := d.blkIx.Evict(int32(b.ID)); bi >= 0 {
		d.slab.Put(d.shadow[bi])
		d.shadow[bi] = nil
	}
}

// Access implements trace.Sink: the happens-before check, with FastTrack-
// style same-epoch fast paths. A read repeated at the thread's current epoch
// is already in the shadow; a write repeated at its own epoch with a clean
// read clock cannot change state. Both skip the stores — never the race
// checks, so the dynamic race count is exactly what the slow path produces.
func (d *refDJIT) Access(a *trace.Access) {
	bi := d.blkIx.Lookup(int32(a.Block))
	if bi < 0 {
		return
	}
	sh := d.shadow[bi]
	ti := d.tIdx(a.Thread)
	me := d.threads[ti]
	epoch := vclock.Epoch{T: int32(ti), C: me.Get(ti)}
	lo := int(a.Off) / d.cfg.Granule
	hi := int(a.Off+a.Size-1) / d.cfg.Granule
	for gi := lo; gi <= hi && gi < len(sh); gi++ {
		c := &sh[gi]
		if a.Kind == trace.Read {
			if !c.lastWrite.epoch.Zero() && !c.lastWrite.epoch.HappensBefore(me) {
				d.report(c, a, c.lastWrite.stack)
			}
			if c.lastRead.epoch == epoch {
				// Same-epoch read: the read clock already carries it.
				c.lastRead.stack = a.Stack
				continue
			}
			c.reads = c.reads.Set(ti, epoch.C)
			c.readsClean = false
			c.lastRead = refAccess{epoch: epoch, stack: a.Stack}
			continue
		}
		if c.readsClean && c.lastWrite.epoch == epoch {
			// Same-epoch write with no intervening reads: nothing to check,
			// nothing to store.
			c.lastWrite.stack = a.Stack
			continue
		}
		// Write: must be ordered after the last write and after all reads.
		if !c.lastWrite.epoch.Zero() && !c.lastWrite.epoch.HappensBefore(me) {
			d.report(c, a, c.lastWrite.stack)
		} else if !c.reads.LEQ(me) {
			d.report(c, a, c.lastRead.stack)
		}
		c.lastWrite = refAccess{epoch: epoch, stack: a.Stack}
		if c.lastRead.epoch != epoch {
			// Forget the last read's epoch, so a read repeated at it is
			// recorded in the cleared read clock.
			c.lastRead.epoch = vclock.Epoch{}
		}
		c.reads.Clear()
		c.readsClean = true
	}
}

func (d *refDJIT) report(c *refDJITCell, a *trace.Access, prevStack trace.StackID) {
	d.races++
	if d.cfg.FirstRaceOnly && c.reported {
		return
	}
	c.reported = true
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
		State:     fmt.Sprintf("unordered with previous access by vector-clock"),
	})
}

var _ trace.Sink = (*refDJIT)(nil)
