package trace

import (
	"testing"
)

func TestDenseAssignsContiguously(t *testing.T) {
	var d Dense
	ids := []int32{7, 3, 7, 100, 3, 1}
	want := []int{0, 1, 0, 2, 1, 3}
	for i, id := range ids {
		if got := d.Index(id); got != want[i] {
			t.Errorf("Index(%d) = %d, want %d", id, got, want[i])
		}
	}
	if d.Cap() != 4 || d.Live() != 4 {
		t.Errorf("Cap=%d Live=%d, want 4/4", d.Cap(), d.Live())
	}
}

func TestDenseLookupMissesUnmapped(t *testing.T) {
	var d Dense
	if got := d.Lookup(5); got != -1 {
		t.Errorf("Lookup(5) on empty = %d, want -1", got)
	}
	d.Index(5)
	if got := d.Lookup(5); got != 0 {
		t.Errorf("Lookup(5) = %d, want 0", got)
	}
	if got := d.Lookup(6); got != -1 {
		t.Errorf("Lookup(6) = %d, want -1", got)
	}
}

func TestDenseEvictRecycles(t *testing.T) {
	var d Dense
	a := d.Index(10)
	b := d.Index(20)
	if got := d.Evict(10); got != a {
		t.Errorf("Evict(10) = %d, want %d", got, a)
	}
	if got := d.Lookup(10); got != -1 {
		t.Errorf("Lookup(10) after evict = %d, want -1", got)
	}
	// The freed index is recycled before a new one is minted.
	if got := d.Index(30); got != a {
		t.Errorf("Index(30) = %d, want recycled %d", got, a)
	}
	if got := d.Index(40); got != 2 {
		t.Errorf("Index(40) = %d, want 2", got)
	}
	if got := d.Evict(99); got != -1 {
		t.Errorf("Evict(99) unmapped = %d, want -1", got)
	}
	_ = b
	if d.Cap() != 3 || d.Live() != 3 {
		t.Errorf("Cap=%d Live=%d, want 3/3", d.Cap(), d.Live())
	}
}

func TestDenseHostileIDs(t *testing.T) {
	var d Dense
	// Negative and beyond-window IDs take the map fallback; the direct window
	// must not be grown to cover them.
	hostile := []int32{-1, -2147483648, denseDirectLimit, 2147483647}
	seen := make(map[int]bool)
	for _, id := range hostile {
		idx := d.Index(id)
		if seen[idx] {
			t.Errorf("Index(%d) = %d already assigned", id, idx)
		}
		seen[idx] = true
		if got := d.Lookup(id); got != idx {
			t.Errorf("Lookup(%d) = %d, want %d", id, got, idx)
		}
	}
	if len(d.fwd) >= denseDirectLimit {
		t.Errorf("direct window grew to %d for hostile IDs", len(d.fwd))
	}
	for _, id := range hostile {
		if d.Evict(id) == -1 {
			t.Errorf("Evict(%d) = -1, want mapped", id)
		}
	}
	if d.Live() != 0 {
		t.Errorf("Live = %d after evicting all, want 0", d.Live())
	}
}

func TestDenseSteadyStateNoAllocs(t *testing.T) {
	var d Dense
	for i := int32(0); i < 64; i++ {
		d.Index(i)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := int32(0); i < 64; i++ {
			if d.Index(i) != int(i) {
				t.Fatal("remap changed")
			}
		}
		d.Evict(63)
		d.Index(63)
	})
	// Evict appends to the free list, which reaches steady capacity.
	if allocs != 0 {
		t.Errorf("steady-state Index/Evict allocated %.1f per run, want 0", allocs)
	}
}

func TestSlabRecyclesZeroed(t *testing.T) {
	var s Slab[int]
	c := s.Get(5)
	if len(c) != 5 {
		t.Fatalf("Get(5) len = %d", len(c))
	}
	for i := range c {
		c[i] = i + 1
	}
	base := &c[0]
	s.Put(c)
	r := s.Get(3) // smaller request still fits the recycled class-3 array? no: class(3)=2, class(5)=3
	_ = r
	c2 := s.Get(5)
	if &c2[0] != base {
		t.Errorf("Get(5) did not recycle the Put array")
	}
	for i, v := range c2 {
		if v != 0 {
			t.Errorf("recycled cell %d = %d, want 0", i, v)
		}
	}
	if got := s.Get(0); got != nil {
		t.Errorf("Get(0) = %v, want nil", got)
	}
	s.Put(nil) // must not panic
}

func TestSlabCapacityClasses(t *testing.T) {
	var s Slab[byte]
	c := s.Get(100) // class 7, cap 128
	if cap(c) != 128 || len(c) != 100 {
		t.Fatalf("Get(100): len=%d cap=%d", len(c), cap(c))
	}
	s.Put(c)
	// Any request up to the full class capacity reuses it.
	c2 := s.Get(128)
	if cap(c2) != 128 {
		t.Errorf("Get(128) after Put(cap 128): cap=%d, want recycled 128", cap(c2))
	}
}

func TestGranules(t *testing.T) {
	cases := []struct {
		name           string
		off, size      uint32
		granule, n     int
		wantLo, wantHi int
	}{
		{"one granule", 4, 4, 4, 10, 1, 2},
		{"straddles two", 5, 4, 4, 10, 1, 3},
		{"zero size at offset 0", 0, 0, 4, 10, 0, 0},
		{"zero size inside", 8, 0, 4, 10, 0, 0},
		{"runs past the block end", 30, 20, 4, 10, 7, 10},
		{"starts past the block end", 100, 4, 4, 10, 25, 10},
		{"off+size wraps uint32", 4, 0xFFFFFFFF, 4, 10, 1, 10},
		{"off near 2^32 wraps", 0xFFFFFFFC, 8, 4, 10, 0x3FFFFFFF, 10},
	}
	for _, c := range cases {
		lo, hi := Granules(c.off, c.size, c.granule, c.n)
		if lo != c.wantLo || hi != c.wantHi {
			t.Errorf("%s: Granules(%d, %d, %d, %d) = [%d, %d), want [%d, %d)",
				c.name, c.off, c.size, c.granule, c.n, lo, hi, c.wantLo, c.wantHi)
		}
	}
}
