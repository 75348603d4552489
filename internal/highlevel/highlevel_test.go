package highlevel

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vm"
)

// person builds the §2.1 example structure: date-of-birth and age protected
// by one mutex.
type person struct {
	blk *vm.Block
	mu  *vm.Mutex
}

func newPerson(t *vm.Thread) *person {
	return &person{blk: t.Alloc(8, "person"), mu: t.VM().NewMutex("personMu")}
}

// setSplit updates the two dependent fields in SEPARATE critical sections —
// the buggy setter pair of the paper's example.
func (p *person) setSplit(t *vm.Thread, dob, age uint32) {
	defer t.Func("Person::setDateOfBirth", "person.cpp", 20)()
	p.mu.Lock(t)
	p.blk.Store32(t, 0, dob)
	p.mu.Unlock(t)
	t.PopFrame()
	t.PushFrame("Person::setAge", "person.cpp", 30)
	p.mu.Lock(t)
	p.blk.Store32(t, 4, age)
	p.mu.Unlock(t)
}

// setAtomic updates both fields in one critical section — the fix.
func (p *person) setAtomic(t *vm.Thread, dob, age uint32) {
	defer t.Func("Person::set", "person.cpp", 40)()
	p.mu.Lock(t)
	p.blk.Store32(t, 0, dob)
	p.blk.Store32(t, 4, age)
	p.mu.Unlock(t)
}

// readBoth reads the pair as a unit.
func (p *person) readBoth(t *vm.Thread) (uint32, uint32) {
	defer t.Func("Person::snapshot", "person.cpp", 50)()
	p.mu.Lock(t)
	dob := p.blk.Load32(t, 0)
	age := p.blk.Load32(t, 4)
	p.mu.Unlock(t)
	return dob, age
}

func run(t *testing.T, body func(*vm.Thread, *person)) (*Detector, *report.Collector) {
	t.Helper()
	v := vm.New(vm.Options{Seed: 1})
	col := report.NewCollector(v, nil)
	d := New(Config{}, col)
	v.AddTool(d)
	if err := v.Run(func(main *vm.Thread) {
		p := newPerson(main)
		body(main, p)
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	d.Finish()
	return d, col
}

func TestDateOfBirthAgeExample(t *testing.T) {
	// The paper's example: writer updates dob and age separately, reader
	// snapshots both. Every access is locked — no low-level race — but the
	// view {dob,age} is split: a high-level data race.
	d, col := run(t, func(main *vm.Thread, p *person) {
		w := main.Go("writer", func(th *vm.Thread) {
			for i := 0; i < 3; i++ {
				p.setSplit(th, uint32(1980+i), uint32(40+i))
			}
		})
		r := main.Go("reader", func(th *vm.Thread) {
			for i := 0; i < 3; i++ {
				p.readBoth(th)
			}
		})
		main.Join(w)
		main.Join(r)
	})
	if d.Violations() == 0 {
		t.Error("split setter pair not reported as a high-level race")
	}
	if got := col.CountByKind()[report.KindHighLevel]; got == 0 {
		t.Errorf("no high-level warnings in the collector: %s", col.Summary())
	}
}

func TestAtomicUpdateIsConsistent(t *testing.T) {
	d, _ := run(t, func(main *vm.Thread, p *person) {
		w := main.Go("writer", func(th *vm.Thread) {
			for i := 0; i < 3; i++ {
				p.setAtomic(th, uint32(1980+i), uint32(40+i))
			}
		})
		r := main.Go("reader", func(th *vm.Thread) {
			for i := 0; i < 3; i++ {
				p.readBoth(th)
			}
		})
		main.Join(w)
		main.Join(r)
	})
	if d.Violations() != 0 {
		t.Errorf("atomic setter reported %d violations", d.Violations())
	}
}

func TestSingleThreadNeverViolates(t *testing.T) {
	d, _ := run(t, func(main *vm.Thread, p *person) {
		p.setSplit(main, 1980, 40)
		p.readBoth(main)
	})
	if d.Violations() != 0 {
		t.Errorf("single thread reported %d violations", d.Violations())
	}
}

func TestDisjointFieldsAreConsistent(t *testing.T) {
	// Threads touching disjoint fields under the same lock: chains hold.
	d, _ := run(t, func(main *vm.Thread, p *person) {
		a := main.Go("a", func(th *vm.Thread) {
			p.mu.Lock(th)
			p.blk.Store32(th, 0, 1)
			p.mu.Unlock(th)
		})
		b := main.Go("b", func(th *vm.Thread) {
			p.mu.Lock(th)
			p.blk.Store32(th, 4, 2)
			p.mu.Unlock(th)
		})
		main.Join(a)
		main.Join(b)
	})
	if d.Violations() != 0 {
		t.Errorf("disjoint accesses reported %d violations", d.Violations())
	}
}

func TestSubsetViewsAreConsistent(t *testing.T) {
	// Reader takes {dob,age}, writer also takes {dob,age} sometimes and
	// {dob} other times: {dob} ⊆ {dob,age} is a chain — consistent.
	d, _ := run(t, func(main *vm.Thread, p *person) {
		w := main.Go("writer", func(th *vm.Thread) {
			p.setAtomic(th, 1980, 40)
			p.mu.Lock(th)
			p.blk.Store32(th, 0, 1981) // dob only: subset view
			p.mu.Unlock(th)
		})
		r := main.Go("reader", func(th *vm.Thread) {
			p.readBoth(th)
		})
		main.Join(w)
		main.Join(r)
	})
	if d.Violations() != 0 {
		t.Errorf("subset views reported %d violations", d.Violations())
	}
}

func TestFinishIdempotent(t *testing.T) {
	d, col := run(t, func(main *vm.Thread, p *person) {
		w := main.Go("writer", func(th *vm.Thread) { p.setSplit(th, 1980, 40) })
		r := main.Go("reader", func(th *vm.Thread) { p.readBoth(th) })
		main.Join(w)
		main.Join(r)
	})
	before := col.Occurrences()
	d.Finish()
	d.Finish()
	if col.Occurrences() != before {
		t.Error("Finish is not idempotent")
	}
}

// TestAccessStaysInBlock holds a view to the granules an access touches
// inside its block, which the shadow tools compute with trace.Granules: a
// zero-size access touches none, and nothing reaches past the block's end.
// The zero-size case at offset 0 comes last because, computed in 32 bits
// without that bound, its range wraps to 2^30 granules.
func TestAccessStaysInBlock(t *testing.T) {
	for _, tc := range []struct {
		name      string
		off, size uint32
		want      int
	}{
		{"zero size at offset 5", 5, 0, 0},
		{"1 MiB into an 8-byte block", 0, 1 << 20, 2},
		{"straddles the block's end", 6, 4, 1},
		{"one granule", 4, 4, 1},
		{"zero size at offset 0", 0, 0, 0},
	} {
		d := New(Config{}, &recorder{})
		d.Alloc(&trace.Block{ID: 1, Size: 8})
		d.Acquire(1, 1, trace.Mutex, 0)
		d.Access(&trace.Access{Thread: 1, Block: 1, Off: tc.off, Size: tc.size, Kind: trace.Write})
		if got := openVars(d, 1, 1); got != tc.want {
			t.Fatalf("%s: the view holds %d variables, want %d", tc.name, got, tc.want)
		}
	}
}

// openVars returns the number of distinct variables in thread t's open view
// of lock l.
func openVars(d *Detector, t trace.ThreadID, l trace.LockID) int {
	vs := d.open[t]
	keys := slices.Clone(vs[openIndex(vs, l)].keys)
	slices.SortFunc(keys, cmpVarKey)
	return len(slices.Compact(keys))
}

// TestLargeCriticalSection bounds what one hostile critical section costs:
// 100,000 distinct granules in shuffled order, then the release. The view
// is compacted in O(n log n); an insertion sort of its keys at Release
// takes seconds.
func TestLargeCriticalSection(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation makes the time bound meaningless")
	}
	const n = 100_000
	d := New(Config{}, &recorder{})
	d.Alloc(&trace.Block{ID: 1, Size: 4 * n})
	order := rand.New(rand.NewSource(1)).Perm(n)
	start := time.Now()
	d.Acquire(1, 1, trace.Mutex, 1)
	for _, g := range order {
		d.Access(&trace.Access{Thread: 1, Block: 1, Off: uint32(4 * g), Size: 4, Kind: trace.Write})
	}
	d.Release(1, 1, trace.Mutex, 1)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("one %d-granule critical section took %v, want under 1s", n, elapsed)
	}
	views := d.recs[lockThread{1, 1}].views
	if got := len(views); got != 1 {
		t.Fatalf("recorded %d views, want 1", got)
	}
	if got := len(views[0].keys); got != n {
		t.Errorf("the view holds %d variables, want %d", got, n)
	}
}

// TestOpenViewMemoryBounded holds an open view's key log to at most twice
// its distinct granules plus compactSlack, after every access: 100,000
// accesses alternating between two granules never grow it past that. The
// higher granule comes first, so the log falls out of order at once and
// only compaction keeps it short.
func TestOpenViewMemoryBounded(t *testing.T) {
	d := New(Config{}, &recorder{})
	d.Alloc(&trace.Block{ID: 1, Size: 8})
	d.Acquire(1, 1, trace.Mutex, 1)
	v := d.open[1][0]
	for i := 0; i < 100_000; i++ {
		d.Access(&trace.Access{Thread: 1, Block: 1, Off: uint32(4 * (1 - i%2)), Size: 4, Kind: trace.Write})
		distinct := min(i+1, 2)
		if got := len(v.keys); got > 2*distinct+compactSlack {
			t.Fatalf("after access %d: %d keys logged for %d distinct granules, want at most %d",
				i, got, distinct, 2*distinct+compactSlack)
		}
	}
}
