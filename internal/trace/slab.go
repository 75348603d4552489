package trace

import "math/bits"

// Slab recycles per-block shadow-cell arrays for the block-routed detectors,
// the same free-on-evict discipline the decoder's block table applies to its
// descriptors: a freed block's cells go back on a free list instead of to
// the garbage collector, so steady-state alloc/free traffic reallocates
// nothing and detector shadow memory is bounded by the live set rather than
// the allocation history.
//
// Arrays are bucketed by capacity class (powers of two), handed out zeroed
// at the requested length. Slab is not safe for concurrent use; each
// detector instance owns its own.
type Slab[C any] struct {
	buckets [32][][]C
}

// Get returns a zeroed slice of length n, reusing a recycled array of
// sufficient capacity when one is free.
func (s *Slab[C]) Get(n int) []C {
	if n <= 0 {
		return nil
	}
	class := bits.Len(uint(n - 1)) // ceil(log2 n)
	if free := s.buckets[class]; len(free) > 0 {
		c := free[len(free)-1]
		free[len(free)-1] = nil
		s.buckets[class] = free[:len(free)-1]
		c = c[:n]
		clear(c)
		return c
	}
	return make([]C, n, 1<<class)
}

// Put recycles a cell array for a future Get. Nil or zero-capacity slices
// are ignored.
func (s *Slab[C]) Put(c []C) {
	if cap(c) == 0 {
		return
	}
	class := bits.Len(uint(cap(c))) - 1 // floor(log2 cap): Get(n) for any n <= 1<<class fits
	s.buckets[class] = append(s.buckets[class], c[:0])
}

// Shadow is the per-block shadow memory of a block-routed detector: one cell
// array per live block, behind a dense block index, drawn from a Slab and
// returned to it when the block is freed. The VM never reuses block IDs, so
// a freed block is never accessed again and its dense slot is recycled.
type Shadow[C any] struct {
	ix    Dense
	cells [][]C
	slab  Slab[C]
}

// Alloc gives block b one zeroed cell per granule bytes.
func (s *Shadow[C]) Alloc(b *Block, granule int) {
	bi := s.ix.Index(int32(b.ID))
	for len(s.cells) <= bi {
		s.cells = append(s.cells, nil)
	}
	s.cells[bi] = s.slab.Get((int(b.Size) + granule - 1) / granule)
}

// Free returns block id's cells to the slab.
func (s *Shadow[C]) Free(id BlockID) {
	if bi := s.ix.Evict(int32(id)); bi >= 0 {
		s.slab.Put(s.cells[bi])
		s.cells[bi] = nil
	}
}

// Block returns block id's cells, or nil when the block is not live.
func (s *Shadow[C]) Block(id BlockID) []C {
	if bi := s.ix.Lookup(int32(id)); bi >= 0 {
		return s.cells[bi]
	}
	return nil
}

// Granules returns the half-open range [lo, hi) of the cells of an n-cell
// shadow array that the size bytes at off touch, one cell per granule bytes.
// A zero-size access touches none, and the range stops at the array's end
// even when off+size overflows 32 bits.
func Granules(off, size uint32, granule, n int) (lo, hi int) {
	if size == 0 {
		return 0, 0
	}
	return int(off) / granule, min((int(off)+int(size)-1)/granule+1, n)
}
