// Package vclock implements vector clocks (Lamport [7] / DJIT [6]) used by
// every race detector's happens-before relation.
//
// The package holds the DATATYPE — a growable vector of per-thread logical
// clocks with join/compare operations — and two parts the detectors share:
// HB, the happens-before core that advances one clock per thread over a
// trace's synchronisation events (DJIT, the hybrid, and the lock-set
// detector's thread segments), and Cell, the FastTrack-style epoch shadow of
// one granule (DJIT and the hybrid). The DJIT-style race DETECTOR built on
// top of them lives in internal/vectorclock.
package vclock

// VC is a vector clock: one logical clock per thread, indexed by ThreadID.
// Index 0 is unused (thread IDs start at 1). The zero value is the bottom
// clock.
type VC []uint32

// New returns a clock with capacity for n threads.
func New(n int) VC { return make(VC, n+1) }

// Get returns the component for thread t (0 if out of range).
func (v VC) Get(t int) uint32 {
	if t < len(v) {
		return v[t]
	}
	return 0
}

// Set sets the component for thread t, growing the clock if needed, and
// returns the possibly-reallocated clock.
func (v VC) Set(t int, c uint32) VC {
	v = v.grow(t)
	v[t] = c
	return v
}

// Tick increments the component for thread t and returns the clock.
func (v VC) Tick(t int) VC {
	v = v.grow(t)
	v[t]++
	return v
}

func (v VC) grow(t int) VC {
	if t < len(v) {
		return v
	}
	nv := make(VC, t+1)
	copy(nv, v)
	return nv
}

// Join merges other into v (componentwise max) and returns the clock.
func (v VC) Join(other VC) VC {
	if len(other) > len(v) {
		v = v.grow(len(other) - 1)
	}
	for i, c := range other {
		if c > v[i] {
			v[i] = c
		}
	}
	return v
}

// Clone returns an independent copy of v.
func (v VC) Clone() VC {
	nv := make(VC, len(v))
	copy(nv, v)
	return nv
}

// CopyInto copies src into dst, reusing dst's storage when it is large
// enough, and returns the result. The hot-path replacement for Clone
// wherever a previous clock of the same object can donate its array (lock
// clocks on release, pooled message clocks): steady state copies without
// allocating.
func CopyInto(dst, src VC) VC {
	if cap(dst) >= len(src) {
		dst = dst[:len(src)]
		copy(dst, src)
		return dst
	}
	return src.Clone()
}

// Clear zeroes every component in place, keeping the storage. A cleared
// clock is semantically the bottom clock — Get reads 0, LEQ skips zero
// components, Join treats it as the identity — so callers can reset a clock
// without surrendering its array to the garbage collector.
func (v VC) Clear() {
	for i := range v {
		v[i] = 0
	}
}

// LEQ reports whether v happens-before-or-equals other (componentwise <=).
func (v VC) LEQ(other VC) bool {
	for i, c := range v {
		if c == 0 {
			continue
		}
		if i >= len(other) || c > other[i] {
			return false
		}
	}
	return true
}

// Epoch is a compact (thread, clock) pair identifying a single event, in the
// style of FastTrack. It represents the event at which thread T's clock was C.
type Epoch struct {
	T int32
	C uint32
}

// Zero reports whether the epoch is unset.
func (e Epoch) Zero() bool { return e.T == 0 && e.C == 0 }

// HappensBefore reports whether the epoch's event happens-before the state
// described by the clock (i.e. the clock has seen the event).
func (e Epoch) HappensBefore(v VC) bool {
	return e.C <= v.Get(int(e.T))
}
