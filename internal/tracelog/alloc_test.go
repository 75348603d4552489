package tracelog_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/trace"
	"repro/internal/tracelog"
)

// recordAllOps encodes a log exercising every opcode in steady-state shape:
// repeated tags (intern hits), balanced alloc/free pairs (slab recycling) and
// multi-edge segments (edge-buffer reuse).
func recordAllOps(t *testing.T, rounds int) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := tracelog.NewRecorder(&buf)
	tags := []string{"obj:Request", "string-rep", "obj:Dialog"}
	for i := 0; i < rounds; i++ {
		th := trace.ThreadID(i%4 + 1)
		rec.ThreadStart(th, 1)
		rec.Segment(&trace.SegmentStart{
			Seg: trace.SegmentID(i + 2), Thread: th,
			In: []trace.SegmentEdge{
				{From: trace.SegmentID(i + 1), Kind: trace.Program},
				{From: trace.SegmentID(i), Kind: trace.Create},
			},
		})
		id := trace.BlockID(i + 1)
		rec.Alloc(&trace.Block{ID: id, Base: trace.Addr(0x1000 + i), Size: 64, Thread: th, Stack: 1, Tag: tags[i%len(tags)]})
		rec.Access(&trace.Access{Thread: th, Seg: trace.SegmentID(i + 2), Block: id, Addr: trace.Addr(0x1000 + i), Size: 8, Kind: trace.Write, Stack: 2})
		rec.Acquire(th, 7, trace.Mutex, 3)
		rec.Contended(th, 7, 3)
		rec.Release(th, 7, trace.Mutex, 3)
		rec.Sync(&trace.SyncEvent{Op: trace.CondSignal, Obj: 9, Thread: th, Stack: 4})
		rec.Request(&trace.Request{Kind: trace.ReqBenign, Thread: th, Block: id, Size: 8, Stack: 5})
		rec.Free(&trace.Block{ID: id}, th, 6)
		rec.ThreadExit(th)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drain decodes the whole stream, returning the event count.
func drain(t *testing.T, dec *tracelog.Decoder) int {
	t.Helper()
	var ev tracelog.Event
	n := 0
	for {
		err := dec.Next(&ev)
		if err == io.EOF {
			return n
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
}

// TestZeroAllocDecode pins the tentpole claim: once warmed (slab chunks
// grown, tags interned, edge buffer sized), decoding a stream through every
// opcode allocates nothing at all. GC is disabled during the measurement so
// a collection cannot shrink reused buffers mid-run (AllocsPerRun already
// pins GOMAXPROCS to 1).
func TestZeroAllocDecode(t *testing.T) {
	log := recordAllOps(t, 256)
	r := bytes.NewReader(log)
	dec := tracelog.NewDecoder(r)
	events := drain(t, dec) // warm pass

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(10, func() {
		r.Reset(log)
		dec.Reset(r)
		var ev tracelog.Event
		for dec.Next(&ev) != io.EOF {
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state decode: %.2f allocs per %d-event pass, want 0", allocs, events)
	}
}

// TestGoldenCorpusAllocBudget holds the committed golden corpus to the
// per-event budget: ≤ 0.01 allocs/event across every trace, decoded
// back-to-back through one reused decoder — the long-lived server shape.
func TestGoldenCorpusAllocBudget(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "scenario", "testdata", "golden", "*.trace"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no golden corpus traces found (internal/scenario/testdata/golden)")
	}
	logs := make([][]byte, len(paths))
	for i, p := range paths {
		if logs[i], err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(nil)
	dec := tracelog.NewDecoder(r)
	events := 0
	for _, log := range logs { // warm pass
		r.Reset(log)
		dec.Reset(r)
		events += drain(t, dec)
	}
	if events == 0 {
		t.Fatal("golden corpus decoded to zero events")
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(5, func() {
		var ev tracelog.Event
		for _, log := range logs {
			r.Reset(log)
			dec.Reset(r)
			for dec.Next(&ev) != io.EOF {
			}
		}
	})
	if perEvent := allocs / float64(events); perEvent > 0.01 {
		t.Errorf("golden corpus: %.4f allocs/event over %d events (%.1f allocs/pass), budget 0.01",
			perEvent, events, allocs)
	}
}

// TestBlockTableEviction is the regression test for the unbounded block-map
// leak: a month-long stream of alloc/free pairs with ever-fresh IDs must not
// grow the decoder. 1M pairs once retained ~1M descriptors (tens of MB);
// with eviction the table tracks the live set (here: one block), so decoder
// heap growth stays under a ceiling far below the leaking footprint.
func TestBlockTableEviction(t *testing.T) {
	const pairs = 1_000_000
	var buf bytes.Buffer
	rec := tracelog.NewRecorder(&buf)
	for i := 1; i <= pairs; i++ {
		id := trace.BlockID(i)
		rec.Alloc(&trace.Block{ID: id, Base: trace.Addr(i) << 4, Size: 32, Thread: 1, Stack: 1, Tag: "obj:churn"})
		rec.Free(&trace.Block{ID: id}, 1, 2)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	log := buf.Bytes()

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	dec := tracelog.NewDecoder(bytes.NewReader(log))
	if n := drain(t, dec); n != 2*pairs {
		t.Fatalf("decoded %d events, want %d", n, 2*pairs)
	}

	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	growth := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	// The live decoder is a bufio buffer, one slab chunk and an
	// almost-empty map — well under 1 MB. The ceiling leaves room for
	// allocator noise while sitting far below the ~70 MB a retained table
	// would hold live.
	const ceiling = 8 << 20
	if growth > ceiling {
		t.Errorf("decoder retains %d bytes after %d alloc/free pairs (ceiling %d): block table not evicting", growth, pairs, ceiling)
	}
	runtime.KeepAlive(dec)
	runtime.KeepAlive(log)
}

// TestTagTableBounded is the regression test for the tag leak: allocation
// tags once went into a process-wide table that never shrank, so pooled
// decoders fed 40 streams of 5,000 unique tags each left about 15 MB behind
// after GC. Each decoder now keeps its own bounded tag table, and Release
// drops one whose table filled, so nothing a stream sent outlives it.
func TestTagTableBounded(t *testing.T) {
	const streams, tags = 40, 5000
	logs := make([][]byte, streams)
	for s := range logs {
		var buf bytes.Buffer
		rec := tracelog.NewRecorder(&buf)
		for i := 1; i <= tags; i++ {
			id := trace.BlockID(i)
			rec.Alloc(&trace.Block{ID: id, Base: trace.Addr(i) << 4, Size: 32, Thread: 1, Stack: 1, Tag: fmt.Sprintf("obj:stream%02d/Tag%05d", s, i)})
			rec.Free(&trace.Block{ID: id}, 1, 2)
		}
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		logs[s] = buf.Bytes()
	}

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	for _, log := range logs {
		dec := tracelog.AcquireDecoder(bytes.NewReader(log))
		if n := drain(t, dec); n != 2*tags {
			t.Fatalf("decoded %d events, want %d", n, 2*tags)
		}
		dec.Release()
	}

	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	growth := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	// What may stay is one pooled decoder: a window, a slab chunk and a
	// tag table under its bound, about 0.5 MB. A table kept for the
	// process holds all 200,000 tags, about 15 MB.
	const ceiling = 4 << 20
	if growth > ceiling {
		t.Errorf("decoding %d streams of %d unique tags retains %d bytes (ceiling %d): tags outlive their streams", streams, tags, growth, ceiling)
	}
	runtime.KeepAlive(logs)
}
