package engine_test

import (
	"bytes"
	"testing"

	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// BenchmarkPipelineOverhead isolates the engine's own cost from detector
// cost: with one no-op tool, everything measured is decode + batching +
// delivery.
func BenchmarkPipelineOverhead(b *testing.B) {
	const events = 1_200_000
	log := buildSyntheticTrace(b, events)
	b.Run("decode-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tracelog.Replay(bytes.NewReader(log), trace.BaseSink{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/events, "ns/event")
	})
	b.Run("dispatch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seq, err := engine.NewSequential(engine.Options{Tools: nopSpecs()[:1]})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := seq.ReplayLog(bytes.NewReader(log)); err != nil {
				b.Fatal(err)
			}
			if _, err := seq.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/events, "ns/event")
	})
}

// buildSyntheticTrace emits a valid trace of at least the requested number
// of events directly through the Recorder (no VM in the loop): T threads
// performing lock-protected transactions of 16 accesses spread over many
// blocks. The access/synchronisation mix (~11% synchronisation events) is
// what a server workload with modest critical sections looks like.
func buildSyntheticTrace(tb testing.TB, minEvents int64) []byte {
	tb.Helper()
	var buf bytes.Buffer
	rec := tracelog.NewRecorder(&buf)
	const (
		threads   = 8
		blocks    = 512
		blockSize = 64
	)
	for t := trace.ThreadID(1); t <= threads; t++ {
		rec.ThreadStart(t, 0)
		rec.Segment(&trace.SegmentStart{Seg: trace.SegmentID(t), Thread: t})
	}
	for b := trace.BlockID(1); b <= blocks; b++ {
		rec.Alloc(&trace.Block{ID: b, Base: trace.Addr(0x10000 * uint64(b)), Size: blockSize, Tag: "bench"})
	}
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { rng = rng*6364136223846793005 + 1442695040888963407; return rng >> 11 }
	for rec.Events() < minEvents {
		r := next()
		th := trace.ThreadID(1 + r%threads)
		lock := trace.LockID(1 + (r>>4)%4)
		rec.Acquire(th, lock, trace.Mutex, 0)
		for i := 0; i < 16; i++ {
			r := next()
			b := trace.BlockID(1 + r%blocks)
			off := uint32((r >> 16) % (blockSize / 4) * 4)
			kind := trace.Read
			if (r>>9)%4 == 0 {
				kind = trace.Write
			}
			rec.Access(&trace.Access{
				Thread: th, Seg: trace.SegmentID(th), Block: b,
				Addr: trace.Addr(0x10000*uint64(b)) + trace.Addr(off),
				Off:  off, Size: 4, Kind: kind,
				Stack: trace.StackID(1 + r%97),
			})
		}
		rec.Release(th, lock, trace.Mutex, 0)
	}
	if err := rec.Flush(); err != nil {
		tb.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}
