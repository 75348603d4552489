package vclock

import (
	"testing"
	"testing/quick"
)

func TestBasics(t *testing.T) {
	v := New(3)
	v = v.Tick(1).Tick(1).Tick(2)
	if v.Get(1) != 2 || v.Get(2) != 1 || v.Get(3) != 0 {
		t.Errorf("clock = %v, want [_,2,1,0]", v)
	}
	w := New(3).Tick(3)
	j := v.Clone().Join(w)
	if j.Get(1) != 2 || j.Get(3) != 1 {
		t.Errorf("join = %v", j)
	}
}

func TestLEQAndConcurrent(t *testing.T) {
	a := VC{}.Set(1, 1)
	b := VC{}.Set(1, 2).Set(2, 1)
	if !a.LEQ(b) {
		t.Error("a should be <= b")
	}
	if b.LEQ(a) {
		t.Error("b should not be <= a")
	}
	c := VC{}.Set(2, 5)
	if a.LEQ(c) || c.LEQ(a) {
		t.Error("a and c should be concurrent")
	}
}

func TestEpoch(t *testing.T) {
	v := VC{}.Set(2, 7)
	e := Epoch{T: 2, C: 7}
	if !e.HappensBefore(v) {
		t.Error("epoch at exactly the clock must happen-before")
	}
	e2 := Epoch{T: 2, C: 8}
	if e2.HappensBefore(v) {
		t.Error("future epoch must not happen-before")
	}
	var zero Epoch
	if !zero.Zero() {
		t.Error("zero epoch misdetected")
	}
}

func TestGrowOutOfRange(t *testing.T) {
	var v VC
	v = v.Set(10, 3)
	if v.Get(10) != 3 || v.Get(99) != 0 {
		t.Errorf("grow/set failed: %v", v)
	}
}

func clip(raw []uint8, n int) VC {
	v := New(n)
	for i, x := range raw {
		if i >= n {
			break
		}
		v[i+1] = uint32(x)
	}
	return v
}

func TestJoinLattice(t *testing.T) {
	// Join is the least upper bound: commutative, associative, idempotent,
	// and both operands are <= the join.
	prop := func(ra, rb, rc []uint8) bool {
		a, b, c := clip(ra, 6), clip(rb, 6), clip(rc, 6)
		ab := a.Clone().Join(b)
		ba := b.Clone().Join(a)
		for i := range ab {
			if ab.Get(i) != ba.Get(i) {
				return false
			}
		}
		abc1 := a.Clone().Join(b).Join(c)
		abc2 := a.Clone().Join(b.Clone().Join(c))
		for i := 0; i < 7; i++ {
			if abc1.Get(i) != abc2.Get(i) {
				return false
			}
		}
		aa := a.Clone().Join(a)
		for i := range aa {
			if aa.Get(i) != a.Get(i) {
				return false
			}
		}
		return a.LEQ(ab) && b.LEQ(ab)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLEQPartialOrder(t *testing.T) {
	// Reflexive, antisymmetric (up to equality), transitive.
	prop := func(ra, rb, rc []uint8) bool {
		a, b, c := clip(ra, 6), clip(rb, 6), clip(rc, 6)
		if !a.LEQ(a) {
			return false
		}
		if a.LEQ(b) && b.LEQ(c) && !a.LEQ(c) {
			return false
		}
		if a.LEQ(b) && b.LEQ(a) {
			for i := 0; i < 7; i++ {
				if a.Get(i) != b.Get(i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
