package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/lockset"
	"repro/internal/vm"
)

func racyProgram(main *vm.Thread) {
	b := main.Alloc(4, "counter")
	w := func(t *vm.Thread) {
		for i := 0; i < 5; i++ {
			b.Store32(t, 0, b.Load32(t, 0)+1)
		}
	}
	a := main.Go("a", w)
	c := main.Go("b", w)
	main.Join(a)
	main.Join(c)
}

// withTools returns opt with its registry set to the named tools, built by
// opt.ParseTools.
func withTools(t *testing.T, opt Options, list string) Options {
	t.Helper()
	specs, err := opt.ParseTools(list)
	if err != nil {
		t.Fatal(err)
	}
	opt.Tools = specs
	return opt
}

func TestRunDefaultLockset(t *testing.T) {
	res, err := Run(Options{Seed: 1}, racyProgram)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Err != nil {
		t.Fatalf("guest: %v", res.Err)
	}
	if res.Locations() == 0 {
		t.Error("racy program reported no locations")
	}
	if res.LocksetDetector == nil {
		t.Error("lockset detector should be set")
	}
	if !strings.Contains(res.Report(), "Possible data race") {
		t.Errorf("report missing race text:\n%s", res.Report())
	}
}

func TestRunDJITAndHybrid(t *testing.T) {
	for _, kind := range []string{"djit", "hybrid"} {
		res, err := Run(withTools(t, Options{Seed: 1}, kind), racyProgram)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Locations() == 0 {
			t.Errorf("%v reported no locations for a racy program", kind)
		}
	}
}

func TestRunWithSuppressions(t *testing.T) {
	sup := `
{
   mute-counter
   Race
   ...
}
`
	res, err := Run(Options{Seed: 1, Suppressions: sup}, racyProgram)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Locations() != 0 {
		t.Errorf("catch-all suppression left %d locations", res.Locations())
	}
	if res.Collector.SuppressedSites() == 0 {
		t.Error("no sites recorded as suppressed")
	}
}

func TestRunBadSuppressions(t *testing.T) {
	if _, err := Run(Options{Suppressions: "{"}, racyProgram); err == nil {
		t.Error("bad suppressions should fail Run")
	}
}

func TestRunGuestDeadlockSurfaced(t *testing.T) {
	res, err := Run(withTools(t, Options{Seed: 1}, "lockset,deadlock"), func(main *vm.Thread) {
		v := main.VM()
		m1, m2 := v.NewMutex("A"), v.NewMutex("B")
		a := main.Go("a", func(t *vm.Thread) {
			m1.Lock(t)
			t.Sleep(10)
			m2.Lock(t)
		})
		b := main.Go("b", func(t *vm.Thread) {
			m2.Lock(t)
			t.Sleep(10)
			m1.Lock(t)
		})
		main.Join(a)
		main.Join(b)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var dl *vm.DeadlockError
	if !errors.As(res.Err, &dl) {
		t.Fatalf("guest err = %v, want DeadlockError", res.Err)
	}
	// The lock-order tool must have flagged the cycle before the hang.
	if res.DeadlockDetector.Cycles() == 0 {
		t.Error("lock-order cycle not reported")
	}
}

func TestRunMemcheck(t *testing.T) {
	res, err := Run(withTools(t, Options{Seed: 1}, "lockset,memcheck"), func(main *vm.Thread) {
		b := main.Alloc(8, "x")
		b.Free(main)
		b.Load32(main, 0)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.MemcheckDetector.Errors() == 0 {
		t.Error("use-after-free not caught")
	}
}

func TestPaperConfigConstructors(t *testing.T) {
	if OptionsOriginal().Lockset.Bus != lockset.BusSingleMutex {
		t.Error("OptionsOriginal bus model wrong")
	}
	if OptionsHWLC().Lockset.Bus != lockset.BusRWLock || OptionsHWLC().Lockset.Destruct {
		t.Error("OptionsHWLC config wrong")
	}
	if !OptionsHWLCDR().Lockset.Destruct {
		t.Error("OptionsHWLCDR must honour destructor annotations")
	}
}

func TestDetectorComparisonE12(t *testing.T) {
	// E12: on the §4.3 program, the lock-set detector finds the discipline
	// violation in schedules where happens-before detectors may not.
	prog := func(ordered bool) func(*vm.Thread) {
		return func(main *vm.Thread) {
			v := main.VM()
			b := main.Alloc(4, "x")
			m := v.NewMutex("m")
			sem := v.NewSemaphore("order", 0)
			first := main.Go("unlocked", func(t *vm.Thread) {
				b.Store32(t, 0, 1)
				if ordered {
					sem.Post(t)
				}
			})
			second := main.Go("locked", func(t *vm.Thread) {
				if ordered {
					sem.Wait(t)
				}
				m.Lock(t)
				b.Store32(t, 0, 2)
				m.Unlock(t)
			})
			main.Join(first)
			main.Join(second)
		}
	}
	// Ordered variant: DJIT silent (sem edge), lock-set still warns when the
	// unlocked write lands second... here it lands first, so Eraser's
	// delayed lock-set initialisation ALSO misses it — the §4.3 false
	// negative — while the unordered variant is caught by both.
	djit, err := Run(withTools(t, Options{Seed: 1}, "djit"), prog(true))
	if err != nil {
		t.Fatal(err)
	}
	if djit.Locations() != 0 {
		t.Errorf("DJIT reported a semaphore-ordered pair:\n%s", djit.Report())
	}
	ls, err := Run(Options{Seed: 2}, prog(false))
	if err != nil {
		t.Fatal(err)
	}
	hb, err := Run(withTools(t, Options{Seed: 2}, "djit"), prog(false))
	if err != nil {
		t.Fatal(err)
	}
	if ls.Locations() == 0 && hb.Locations() == 0 {
		t.Error("unordered unlocked writes missed by both detectors")
	}
}

func TestRunHighLevelDetector(t *testing.T) {
	res, err := Run(withTools(t, Options{Seed: 1}, "highlevel"), func(main *vm.Thread) {
		v := main.VM()
		mu := v.NewMutex("mu")
		pair := main.Alloc(8, "pair")
		w := main.Go("writer", func(th *vm.Thread) {
			defer th.Func("setA", "x.cpp", 1)()
			mu.Lock(th)
			pair.Store32(th, 0, 1)
			mu.Unlock(th)
			th.PopFrame()
			th.PushFrame("setB", "x.cpp", 2)
			mu.Lock(th)
			pair.Store32(th, 4, 2)
			mu.Unlock(th)
		})
		r := main.Go("reader", func(th *vm.Thread) {
			defer th.Func("getBoth", "x.cpp", 3)()
			mu.Lock(th)
			pair.Load32(th, 0)
			pair.Load32(th, 4)
			mu.Unlock(th)
		})
		main.Join(w)
		main.Join(r)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.HighLevelDetector == nil || res.HighLevelDetector.Violations() == 0 {
		t.Error("high-level race not detected through core.Run")
	}
}

// abbaProgram mixes lock-order inversion (aux deadlock tool) with unlocked
// counter races (race detector), to exercise the merged report.
func abbaProgram(main *vm.Thread) {
	v := main.VM()
	m1, m2 := v.NewMutex("A"), v.NewMutex("B")
	gate := v.NewSemaphore("gate", 0)
	b := main.Alloc(4, "counter")
	a := main.Go("a", func(t *vm.Thread) {
		m1.Lock(t)
		m2.Lock(t)
		b.Store32(t, 0, b.Load32(t, 0)+1)
		m2.Unlock(t)
		m1.Unlock(t)
		gate.Post(t)
	})
	c := main.Go("b", func(t *vm.Thread) {
		gate.Wait(t)
		m2.Lock(t)
		m1.Lock(t)
		m1.Unlock(t)
		m2.Unlock(t)
		b.Store32(t, 0, b.Load32(t, 0)+1)
	})
	main.Join(a)
	main.Join(c)
	b.Store32(main, 0, 0)
}
