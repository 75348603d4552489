package scenario

import (
	"repro/internal/hybrid"
	"repro/internal/lockset"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vclock"
)

type refHybridCell struct {
	// Lock-set side.
	set    lockset.SetID
	inited bool
	// Happens-before side. readsClean marks the read clock as holding
	// nothing newer than the last write, so repeated writes at one epoch
	// skip the read-set scan.
	lastWrite  vclock.Epoch
	writeStk   trace.StackID
	reads      vclock.VC
	lastRead   vclock.Epoch
	readStk    trace.StackID
	reported   bool
	readsClean bool
}

// refHybrid is the hybrid detector as it stood before it shared vclock.HB,
// trace.Shadow and lockset.Held: its own clocks, indices, shadow arrays and
// held-set stepping. It is kept verbatim, apart from renames and the
// read-epoch reset on writes that vclock.Cell.Write has, as the test-only
// oracle FuzzDetectorOracle compares the production hybrid.Detector against.
type refHybrid struct {
	trace.BaseSink
	cfg     hybrid.Config
	col     trace.Reporter
	sets    *lockset.SetTable
	thIx    trace.Dense
	lkIx    trace.Dense
	syIx    trace.Dense
	segIx   trace.Dense
	blkIx   trace.Dense
	threads []refHybridThread
	locks   []vclock.VC
	syncs   []vclock.VC
	segVC   []vclock.VC
	msgs    map[int64]vclock.VC
	msgPool []vclock.VC
	shadow  [][]refHybridCell
	slab    trace.Slab[refHybridCell]
}

type refHybridThread struct {
	init   bool
	vc     vclock.VC
	anyM   lockset.SetID
	wrM    lockset.SetID
	anyBus lockset.SetID
	wrBus  lockset.SetID
}

// newRefHybrid creates the oracle with hybrid.Config's defaults.
func newRefHybrid(cfg hybrid.Config, col trace.Reporter) *refHybrid {
	if cfg.Tool == "" {
		cfg.Tool = "hybrid"
	}
	if cfg.Edges == 0 {
		cfg.Edges = trace.MaskFull
	}
	if cfg.Granule <= 0 {
		cfg.Granule = 4
	}
	return &refHybrid{
		cfg:  cfg,
		col:  col,
		sets: lockset.NewSetTable(),
		msgs: make(map[int64]vclock.VC),
	}
}

// ToolName implements trace.Sink.
func (d *refHybrid) ToolName() string { return d.cfg.Tool }

// tIdx returns the dense index for a thread, initialising its clock and
// lock-set variants on first sight.
func (d *refHybrid) tIdx(t trace.ThreadID) int {
	ti := d.thIx.Index(int32(t))
	for len(d.threads) <= ti {
		d.threads = append(d.threads, refHybridThread{})
	}
	ts := &d.threads[ti]
	if !ts.init {
		ts.init = true
		ts.vc = vclock.New(ti).Tick(ti)
		ts.anyBus = d.sets.Add(lockset.EmptySet, trace.BusLock)
		ts.wrBus = ts.anyBus
	}
	return ti
}

// ThreadStart implements trace.Sink.
func (d *refHybrid) ThreadStart(t, parent trace.ThreadID) {
	ti := d.tIdx(t)
	if parent != 0 {
		pi := d.tIdx(parent)
		d.threads[ti].vc = d.threads[ti].vc.Join(d.threads[pi].vc)
		d.threads[pi].vc = d.threads[pi].vc.Tick(pi)
	}
	d.threads[ti].vc = d.threads[ti].vc.Tick(ti)
}

// Segment implements trace.Sink.
func (d *refHybrid) Segment(ss *trace.SegmentStart) {
	ti := d.tIdx(ss.Thread)
	ts := &d.threads[ti]
	for _, e := range ss.In {
		switch e.Kind {
		case trace.Join:
			if si := d.segIx.Lookup(int32(e.From)); si >= 0 && d.segVC[si] != nil {
				ts.vc = ts.vc.Join(d.segVC[si])
			}
		case trace.Queue, trace.Cond, trace.Sem:
			if d.cfg.Edges.Has(e.Kind) {
				if si := d.segIx.Lookup(int32(e.From)); si >= 0 && d.segVC[si] != nil {
					ts.vc = ts.vc.Join(d.segVC[si])
				}
			}
		}
	}
	ts.vc = ts.vc.Tick(ti)
	si := d.segIx.Index(int32(ss.Seg))
	d.segVC = refGrowVCs(d.segVC, si)
	d.segVC[si] = vclock.CopyInto(d.segVC[si], ts.vc)
}

// Acquire implements trace.Sink: the held sets advance by one memoised
// transition edge per variant, and the lock's clock joins the thread's.
func (d *refHybrid) Acquire(t trace.ThreadID, l trace.LockID, k trace.LockKind, _ trace.StackID) {
	ti := d.tIdx(t)
	ts := &d.threads[ti]
	ts.anyM = d.sets.Add(ts.anyM, l)
	ts.anyBus = d.sets.Add(ts.anyM, trace.BusLock)
	if k == trace.Mutex || k == trace.WLock {
		ts.wrM = d.sets.Add(ts.wrM, l)
	} else {
		ts.wrM = d.sets.Remove(ts.wrM, l)
	}
	ts.wrBus = d.sets.Add(ts.wrM, trace.BusLock)
	if li := d.lkIx.Lookup(int32(l)); li >= 0 && d.locks[li] != nil {
		ts.vc = ts.vc.Join(d.locks[li])
	}
}

// Release implements trace.Sink.
func (d *refHybrid) Release(t trace.ThreadID, l trace.LockID, _ trace.LockKind, _ trace.StackID) {
	ti := d.tIdx(t)
	ts := &d.threads[ti]
	ts.anyM = d.sets.Remove(ts.anyM, l)
	ts.anyBus = d.sets.Add(ts.anyM, trace.BusLock)
	ts.wrM = d.sets.Remove(ts.wrM, l)
	ts.wrBus = d.sets.Add(ts.wrM, trace.BusLock)
	li := d.lkIx.Index(int32(l))
	d.locks = refGrowVCs(d.locks, li)
	d.locks[li] = vclock.CopyInto(d.locks[li], ts.vc)
	ts.vc = ts.vc.Tick(ti)
}

// Sync implements trace.Sink.
func (d *refHybrid) Sync(ev *trace.SyncEvent) {
	ti := d.tIdx(ev.Thread)
	ts := &d.threads[ti]
	switch ev.Op {
	case trace.QueuePut:
		if d.cfg.Edges.Has(trace.Queue) {
			var mv vclock.VC
			if n := len(d.msgPool); n > 0 {
				mv = d.msgPool[n-1]
				d.msgPool = d.msgPool[:n-1]
			}
			d.msgs[ev.Msg] = vclock.CopyInto(mv, ts.vc)
		}
	case trace.QueueGet:
		if d.cfg.Edges.Has(trace.Queue) {
			if mv, ok := d.msgs[ev.Msg]; ok {
				ts.vc = ts.vc.Join(mv)
				delete(d.msgs, ev.Msg)
				d.msgPool = append(d.msgPool, mv)
			}
		}
	case trace.CondSignal, trace.CondBroadcast:
		if d.cfg.Edges.Has(trace.Cond) {
			si := d.syIx.Index(int32(ev.Obj))
			d.syncs = refGrowVCs(d.syncs, si)
			d.syncs[si] = d.syncs[si].Join(ts.vc)
			ts.vc = ts.vc.Tick(ti)
		}
	case trace.CondWaitDone:
		if d.cfg.Edges.Has(trace.Cond) {
			if si := d.syIx.Lookup(int32(ev.Obj)); si >= 0 && d.syncs[si] != nil {
				ts.vc = ts.vc.Join(d.syncs[si])
			}
		}
	case trace.SemPost:
		if d.cfg.Edges.Has(trace.Sem) {
			si := d.syIx.Index(int32(ev.Obj))
			d.syncs = refGrowVCs(d.syncs, si)
			d.syncs[si] = d.syncs[si].Join(ts.vc)
			ts.vc = ts.vc.Tick(ti)
		}
	case trace.SemWaitDone:
		if d.cfg.Edges.Has(trace.Sem) {
			if si := d.syIx.Lookup(int32(ev.Obj)); si >= 0 && d.syncs[si] != nil {
				ts.vc = ts.vc.Join(d.syncs[si])
			}
		}
	}
}

// Alloc implements trace.Sink.
func (d *refHybrid) Alloc(b *trace.Block) {
	n := (int(b.Size) + d.cfg.Granule - 1) / d.cfg.Granule
	bi := d.blkIx.Index(int32(b.ID))
	for len(d.shadow) <= bi {
		d.shadow = append(d.shadow, nil)
	}
	d.shadow[bi] = d.slab.Get(n)
}

// Free implements trace.Sink: the shadow cells return to the slab and the
// dense slot is recycled (block IDs are never reused).
func (d *refHybrid) Free(b *trace.Block, _ trace.ThreadID, _ trace.StackID) {
	if bi := d.blkIx.Evict(int32(b.ID)); bi >= 0 {
		d.slab.Put(d.shadow[bi])
		d.shadow[bi] = nil
	}
}

// Access implements trace.Sink: report only when the lock-set is empty AND
// the accesses are unordered. Same-epoch repeats skip the redundant shadow
// stores and the read-set scan, never the race decision itself.
func (d *refHybrid) Access(a *trace.Access) {
	bi := d.blkIx.Lookup(int32(a.Block))
	if bi < 0 {
		return
	}
	sh := d.shadow[bi]
	ti := d.tIdx(a.Thread)
	ts := &d.threads[ti]
	anyM, wrM := ts.anyM, ts.wrM
	switch d.cfg.Bus {
	case lockset.BusSingleMutex:
		if a.Atomic {
			anyM, wrM = ts.anyBus, ts.wrBus
		}
	case lockset.BusRWLock:
		anyM = ts.anyBus
		if a.Atomic {
			wrM = ts.wrBus
		}
	}
	epoch := vclock.Epoch{T: int32(ti), C: ts.vc.Get(ti)}
	lo := int(a.Off) / d.cfg.Granule
	hi := int(a.Off+a.Size-1) / d.cfg.Granule
	for gi := lo; gi <= hi && gi < len(sh); gi++ {
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
			if !c.lastWrite.Zero() && !c.lastWrite.HappensBefore(ts.vc) {
				unordered = true
				prevStack = c.writeStk
			}
			if c.lastRead == epoch {
				c.readStk = a.Stack
			} else {
				c.reads = c.reads.Set(ti, epoch.C)
				c.lastRead = epoch
				c.readsClean = false
				c.readStk = a.Stack
			}
		} else {
			if !c.lastWrite.Zero() && !c.lastWrite.HappensBefore(ts.vc) {
				unordered = true
				prevStack = c.writeStk
			} else if !c.readsClean && !c.reads.LEQ(ts.vc) {
				unordered = true
				prevStack = c.readStk
			}
			c.lastWrite = epoch
			c.writeStk = a.Stack
			if c.lastRead != epoch {
				// Forget the last read's epoch, so a read repeated at it
				// is recorded in the cleared read clock.
				c.lastRead = vclock.Epoch{}
			}
			if !c.readsClean {
				c.reads.Clear()
				c.readsClean = true
			}
		}

		if disciplineBroken && unordered && !c.reported {
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
				State:     "no common lock and unordered by happens-before",
			})
		}
	}
}

var _ trace.Sink = (*refHybrid)(nil)
