package vclock

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// refCell is Cell with its shortcuts taken out: no same-epoch read or write
// fast path, the unset-epoch guard on every write-epoch check, and a
// read-clock comparison on every write whether or not a read happened since
// the last one. It records every read. These are the rules DJIT and the
// hybrid applied before they shared Cell, without the read-epoch test.
type refCell struct {
	w          Epoch
	wStk, rStk trace.StackID
	reads      VC
}

func (c *refCell) read(e Epoch, now VC, stk trace.StackID) (prev trace.StackID, racy bool) {
	if !c.w.Zero() && !c.w.HappensBefore(now) {
		prev, racy = c.wStk, true
	}
	c.reads = c.reads.Set(int(e.T), e.C)
	c.rStk = stk
	return prev, racy
}

func (c *refCell) write(e Epoch, now VC, stk trace.StackID) (prev trace.StackID, racy bool) {
	if !c.w.Zero() && !c.w.HappensBefore(now) {
		prev, racy = c.wStk, true
	} else if !c.reads.LEQ(now) {
		prev, racy = c.rStk, true
	}
	c.w, c.wStk = e, stk
	c.reads.Clear()
	return prev, racy
}

// TestCellReadAfterForeignWrite is the lost-read witness: T3 reads, T1
// writes without having seen that read, T3 reads again at the same epoch,
// and T1 writes again at its same epoch. T3's second read is unordered with
// T1's second write, so that write races with it.
func TestCellReadAfterForeignWrite(t *testing.T) {
	t1, t3 := New(3).Tick(1), New(3).Tick(3)
	e1, e3 := Epoch{T: 1, C: t1.Get(1)}, Epoch{T: 3, C: t3.Get(3)}
	var c Cell
	if _, racy := c.Read(e3, t3, 1); racy {
		t.Fatal("first read: race on an untouched cell")
	}
	if prev, racy := c.Write(e1, t1, 2); !racy || prev != 1 {
		t.Fatalf("first write: (%d, %v), want the read at stack 1", prev, racy)
	}
	if prev, racy := c.Read(e3, t3, 3); !racy || prev != 2 {
		t.Fatalf("second read: (%d, %v), want the write at stack 2", prev, racy)
	}
	if prev, racy := c.Write(e1, t1, 4); !racy || prev != 3 {
		t.Fatalf("second write: (%d, %v), want the read at stack 3", prev, racy)
	}
}

// TestCellDifferential drives a Cell and a refCell with the same random
// accesses from four threads (dense index 0 included, whose epochs have
// T == 0) whose clocks tick and join, and requires the same (prev, racy) at
// every step. Ticks are rare next to accesses, so same-epoch repeats, and
// with them both fast paths, are common; the counts below must all be met.
func TestCellDifferential(t *testing.T) {
	const threads, runs, steps = 4, 400, 300
	var fastRead, fastWrite, wwRace, rwRace, wrRace int
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < runs; run++ {
		clocks := make([]VC, threads)
		for i := range clocks {
			clocks[i] = New(i).Tick(i)
		}
		var c Cell
		var ref refCell
		for step := 0; step < steps; step++ {
			ti := rng.Intn(threads)
			switch op := rng.Intn(10); {
			case op == 0:
				clocks[ti] = clocks[ti].Tick(ti)
				continue
			case op == 1:
				ui := rng.Intn(threads)
				clocks[ti] = clocks[ti].Join(clocks[ui]).Tick(ti)
				continue
			}
			now := clocks[ti]
			e := Epoch{T: int32(ti), C: now.Get(ti)}
			stk := trace.StackID(step + 1)
			var got, want trace.StackID
			var gotRacy, wantRacy bool
			if rng.Intn(2) == 0 {
				if c.r == e {
					fastRead++
				}
				got, gotRacy = c.Read(e, now, stk)
				want, wantRacy = ref.read(e, now, stk)
				if wantRacy {
					wrRace++
				}
			} else {
				if c.readsClean && c.w == e {
					fastWrite++
				}
				wasW := ref.w
				got, gotRacy = c.Write(e, now, stk)
				want, wantRacy = ref.write(e, now, stk)
				if wantRacy && !wasW.HappensBefore(now) {
					wwRace++
				} else if wantRacy {
					rwRace++
				}
			}
			if got != want || gotRacy != wantRacy {
				t.Fatalf("run %d step %d thread %d epoch %v: Cell = (%d, %v), ref = (%d, %v)",
					run, step, ti, e, got, gotRacy, want, wantRacy)
			}
		}
	}
	t.Logf("fast reads %d, fast writes %d, races write-write %d, read-write %d, write-read %d",
		fastRead, fastWrite, wwRace, rwRace, wrRace)
	for name, n := range map[string]int{"fast read": fastRead, "fast write": fastWrite,
		"write-write race": wwRace, "read-write race": rwRace, "write-read race": wrRace} {
		if n < 100 {
			t.Errorf("only %d %s steps; the sequences no longer exercise it", n, name)
		}
	}
}
