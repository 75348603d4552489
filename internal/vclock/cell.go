package vclock

import "repro/internal/trace"

// Cell is the happens-before shadow of one granule, shared by the DJIT and
// hybrid detectors: the FastTrack-style (Flanagan & Freund, PLDI 2009) last
// write and last read epochs with their stacks, the read clock, and the
// location's reported bit. The zero value is a granule nobody has touched.
//
// Read and Write take the accessing thread's epoch e and current clock now,
// with e.C == now.Get(int(e.T)). They return racy when the access is
// unordered with an earlier conflicting one, and then prev, that access's
// stack (zero otherwise). Both same-epoch fast paths skip only stores and
// checks that cannot fail.
type Cell struct {
	reads      VC // per-thread read clock; bottom when readsClean
	w, r       Epoch
	wStk, rStk trace.StackID
	readsClean bool // reads holds no read newer than the last write
	// Reported is the detectors' per-location "already warned" bit.
	Reported bool
}

// Read checks a read against the last write and records it. A read repeated
// at the last read's epoch records nothing: Write forgets that epoch unless
// it writes at it, so either the read clock still holds the read, or the
// last write is at the read's own epoch (see Write). The unset write epoch
// {0,0} needs no guard: 0 <= now.Get(0) always holds.
func (c *Cell) Read(e Epoch, now VC, stk trace.StackID) (prev trace.StackID, racy bool) {
	if !c.w.HappensBefore(now) {
		prev, racy = c.wStk, true
	}
	if c.r != e {
		c.reads = c.reads.Set(int(e.T), e.C)
		c.r, c.readsClean = e, false
	}
	c.rStk = stk
	return prev, racy
}

// Write checks a write against the last write and every read since it, and
// records it. A write repeated at the last write's epoch with a clean read
// clock returns at once: the last write is e itself, so it happens before
// now, and a clean read clock is bottom, so the slow path would find no race
// and store the values already there. For the same reason the read clock is
// compared only when it is not clean.
//
// The slow path forgets the last read's epoch, setting it to Epoch{} (never
// a real epoch: every thread clock starts with a self-tick), so a read
// repeated at it is recorded again in the cleared read clock. It keeps a
// read epoch equal to e: a read at the writer's own epoch may stay skipped,
// because until another write replaces e, every later write is ordered
// after e, and with it after that read, or races with e first.
func (c *Cell) Write(e Epoch, now VC, stk trace.StackID) (prev trace.StackID, racy bool) {
	if c.readsClean && c.w == e {
		c.wStk = stk
		return 0, false
	}
	if !c.w.HappensBefore(now) {
		prev, racy = c.wStk, true
	} else if !c.readsClean && !c.reads.LEQ(now) {
		prev, racy = c.rStk, true
	}
	c.w, c.wStk = e, stk
	if c.r != e {
		c.r = Epoch{}
	}
	if !c.readsClean {
		c.reads.Clear()
		c.readsClean = true
	}
	return prev, racy
}
