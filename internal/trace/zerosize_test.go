package trace_test

import (
	"testing"

	"repro/internal/hybrid"
	"repro/internal/lockset"
	"repro/internal/trace"
	"repro/internal/vectorclock"
)

type countReporter int

func (c *countReporter) Add(trace.Warning) bool {
	*c++
	return true
}

// TestZeroSizeAccessTouchesNothing feeds each race detector a 0-byte write
// at offset 0 of a 1 MiB block, by a thread unordered with earlier writes at
// offsets 4000 and 9000. The decoder accepts size 0, so a hostile frame can
// carry one; it touches no byte and must raise no warning.
func TestZeroSizeAccessTouchesNothing(t *testing.T) {
	for _, spec := range []trace.ToolSpec{
		lockset.Spec(lockset.ConfigHWLCDR()),
		vectorclock.Spec(vectorclock.DefaultConfig()),
		hybrid.Spec(hybrid.Config{}),
	} {
		var warnings countReporter
		s := spec.Factory(&warnings)
		s.ThreadStart(1, 0)
		s.Segment(&trace.SegmentStart{Seg: 1, Thread: 1})
		s.Alloc(&trace.Block{ID: 1, Size: 1 << 20, Thread: 1})
		for th := trace.ThreadID(2); th <= 3; th++ {
			s.ThreadStart(th, 1)
			s.Segment(&trace.SegmentStart{Seg: trace.SegmentID(th), Thread: th,
				In: []trace.SegmentEdge{{From: 1, Kind: trace.Create}}})
		}
		for _, off := range []uint32{4000, 9000} {
			s.Access(&trace.Access{Thread: 2, Seg: 2, Block: 1, Off: off, Size: 4, Kind: trace.Write})
		}
		s.Access(&trace.Access{Thread: 3, Seg: 3, Block: 1, Off: 0, Size: 0, Kind: trace.Write})
		if warnings != 0 {
			t.Errorf("%s: a zero-size access raised %d warnings, want 0", spec.Name, warnings)
		}
	}
}
