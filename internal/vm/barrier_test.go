package vm

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/vclock"
)

func TestBarrierRendezvous(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		v := New(Options{Seed: seed})
		bar := v.NewBarrier("b", 3)
		phase := make([]int, 3)
		var serials int
		err := v.Run(func(main *Thread) {
			ths := make([]*Thread, 3)
			for i := range ths {
				i := i
				ths[i] = main.Go("w", func(th *Thread) {
					phase[i] = 1
					if bar.Wait(th) {
						serials++
					}
					// After the barrier every party must observe phase 1
					// everywhere.
					for j, p := range phase {
						if p != 1 {
							t.Errorf("seed %d: worker %d saw phase[%d]=%d after barrier", seed, i, j, p)
						}
					}
				})
			}
			for _, th := range ths {
				main.Join(th)
			}
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if serials != 1 {
			t.Errorf("seed %d: %d serial threads, want 1", seed, serials)
		}
	}
}

func TestBarrierMultipleWaves(t *testing.T) {
	v := New(Options{Seed: 4})
	bar := v.NewBarrier("b", 2)
	count := 0
	err := v.Run(func(main *Thread) {
		a := main.Go("a", func(th *Thread) {
			for i := 0; i < 3; i++ {
				bar.Wait(th)
				count++
			}
		})
		b := main.Go("b", func(th *Thread) {
			for i := 0; i < 3; i++ {
				bar.Wait(th)
				count++
			}
		})
		main.Join(a)
		main.Join(b)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 6 {
		t.Errorf("count = %d, want 6 (three waves of two)", count)
	}
}

func TestBarrierEmitsAllToAllEdges(t *testing.T) {
	v := New(Options{Seed: 1})
	rec := &recorder{}
	v.AddTool(rec)
	bar := v.NewBarrier("b", 2)
	err := v.Run(func(main *Thread) {
		a := main.Go("a", func(th *Thread) { bar.Wait(th) })
		b := main.Go("b", func(th *Thread) { bar.Wait(th) })
		main.Join(a)
		main.Join(b)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Each post-wave segment must carry a Sem edge from the OTHER party.
	var crossEdges int
	for _, s := range rec.segments {
		for _, e := range s.In {
			if e.Kind == trace.Sem {
				crossEdges++
			}
		}
	}
	if crossEdges != 2 {
		t.Errorf("cross edges = %d, want 2 (one per party)", crossEdges)
	}
}

func TestBarrierDeadlockWhenUnderfilled(t *testing.T) {
	v := New(Options{Seed: 1})
	bar := v.NewBarrier("b", 3)
	err := v.Run(func(main *Thread) {
		a := main.Go("a", func(th *Thread) { bar.Wait(th) })
		b := main.Go("b", func(th *Thread) { bar.Wait(th) })
		main.Join(a)
		main.Join(b)
	})
	if err == nil {
		t.Fatal("two of three parties should deadlock")
	}
}

func TestBarrierOrdersPhasesForFullMaskDetector(t *testing.T) {
	// A phase-structured computation: thread A writes in phase 1, thread B
	// reads in phase 2 after the barrier. With Sem edges honoured the
	// accesses are ordered; with the Helgrind mask they are not.
	run := func(mask trace.EdgeMask) int {
		v := New(Options{Seed: 2})
		rec := &segOrderProbe{hb: vclock.HB{Edges: mask}}
		v.AddTool(rec)
		bar := v.NewBarrier("phase", 2)
		var aSeg, bSeg trace.SegmentID
		err := v.Run(func(main *Thread) {
			blk := main.Alloc(4, "phase-data")
			a := main.Go("a", func(th *Thread) {
				blk.Store32(th, 0, 42)
				aSeg = th.Segment()
				bar.Wait(th)
			})
			b := main.Go("b", func(th *Thread) {
				bar.Wait(th)
				bSeg = th.Segment()
				blk.Load32(th, 0)
			})
			main.Join(a)
			main.Join(b)
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if rec.hb.SegmentBefore(aSeg, bSeg) {
			return 1
		}
		return 0
	}
	if run(trace.MaskFull) != 1 {
		t.Error("full mask should order pre-barrier write before post-barrier read")
	}
	if run(trace.MaskHelgrind) != 0 {
		t.Error("Helgrind mask must not order across the barrier")
	}
}

// segOrderProbe feeds thread starts and segments to a vclock.HB, as the
// lock-set detector does, for happens-before assertions between segments in
// tests.
type segOrderProbe struct {
	trace.BaseSink
	hb vclock.HB
}

func (p *segOrderProbe) ToolName() string                     { return "seg-probe" }
func (p *segOrderProbe) ThreadStart(t, parent trace.ThreadID) { p.hb.ThreadStart(t, parent) }
func (p *segOrderProbe) Segment(ss *trace.SegmentStart)       { p.hb.Segment(ss) }
