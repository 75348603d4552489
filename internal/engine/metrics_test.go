package engine_test

import (
	"bytes"
	"testing"

	"repro/internal/engine"
	"repro/internal/lockset"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// TestEngineMetrics pins the engine's self-observability series: the
// delivered event count is exact across snapshot and close boundaries,
// batch and clone activity is visible, and an absorbed tool panic lands on
// the panics counter.
func TestEngineMetrics(t *testing.T) {
	var buf bytes.Buffer
	rec := tracelog.NewRecorder(&buf)
	const nBlocks = 40
	for b := trace.BlockID(1); b <= nBlocks; b++ {
		rec.Alloc(&trace.Block{ID: b, Base: trace.Addr(0x1000 * uint64(b)), Size: 16, Tag: "t"})
	}
	for b := trace.BlockID(1); b <= nBlocks; b++ {
		rec.Access(&trace.Access{Thread: 1, Seg: 1, Block: b, Size: 4, Kind: trace.Write, Stack: trace.StackID(b)})
	}
	rec.Flush()

	met := engine.NewMetrics(obs.NewRegistry())
	seq, err := engine.NewSequential(engine.Options{
		Tools: []trace.ToolSpec{{
			Name:    "panicky",
			Routing: trace.RouteBlock,
			Factory: func(col trace.Reporter) trace.Sink {
				return &panicSink{col: col, poison: trace.BlockID(3)}
			},
		}},
		Metrics: met,
	})
	if err != nil {
		t.Fatalf("NewSequential: %v", err)
	}
	events, err := seq.ReplayLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReplayLog: %v", err)
	}
	if _, err := seq.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if got := met.EventsDecoded.Value(); got != events {
		t.Errorf("events_decoded after snapshot = %d, want %d", got, events)
	}
	// Two events through the Sink methods: the snapshot-free Close delivers
	// them as one more batch.
	batches := met.BatchesFlushed.Value()
	if batches == 0 {
		t.Error("no batches counted for the replay")
	}
	seq.ThreadStart(2, 1)
	seq.ThreadExit(2)
	if _, err := seq.Close(); err == nil {
		t.Fatal("Close must report the tool panic")
	}
	if got := met.EventsDecoded.Value(); got != events+2 {
		t.Errorf("events_decoded after close = %d, want %d", got, events+2)
	}
	if got := met.BatchesFlushed.Value(); got != batches+1 {
		t.Errorf("batches_flushed after close = %d, want %d", got, batches+1)
	}
	if got := met.ToolPanics.Value(); got != 1 {
		t.Errorf("tool_panics = %d, want 1", got)
	}
	if got := met.SnapshotQuiesceNs.Count(); got != 1 {
		t.Errorf("snapshot clone observations = %d, want 1", got)
	}
}

// TestEngineMetricsSharedAcrossPipelines pins the aggregation contract: one
// Metrics attached to several pipelines sums their work, the way the ingest
// daemon shares one across every session.
func TestEngineMetricsSharedAcrossPipelines(t *testing.T) {
	var buf bytes.Buffer
	rec := tracelog.NewRecorder(&buf)
	rec.Alloc(&trace.Block{ID: 1, Base: 0x1000, Size: 16, Tag: "t"})
	rec.Access(&trace.Access{Thread: 1, Seg: 1, Block: 1, Size: 4, Kind: trace.Write, Stack: 1})
	rec.Flush()
	log := buf.Bytes()

	met := engine.NewMetrics(obs.NewRegistry())
	var total int64
	for i := 0; i < 3; i++ {
		seq, err := engine.NewSequential(engine.Options{
			Tools:   []trace.ToolSpec{lockset.Spec(lockset.ConfigHWLC())},
			Metrics: met,
		})
		if err != nil {
			t.Fatal(err)
		}
		n, err := seq.ReplayLog(bytes.NewReader(log))
		if err != nil {
			t.Fatal(err)
		}
		total += n
		if _, err := seq.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := met.EventsDecoded.Value(); got != total {
		t.Errorf("events_decoded = %d, want %d across 3 pipelines", got, total)
	}
}

// TestEngineMetricsConformance pins the hard observability requirement:
// attaching a metrics registry must not change a single output byte.
func TestEngineMetricsConformance(t *testing.T) {
	log, v := recordSIP(t)
	run := func(met *engine.Metrics) string {
		t.Helper()
		seq, err := engine.NewSequential(engine.Options{
			Tools:    []trace.ToolSpec{lockset.Spec(lockset.ConfigHWLC())},
			Resolver: v,
			Metrics:  met,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := seq.ReplayLog(bytes.NewReader(log)); err != nil {
			t.Fatal(err)
		}
		if _, err := seq.Snapshot(); err != nil {
			t.Fatal(err)
		}
		col, err := seq.Close()
		if err != nil {
			t.Fatal(err)
		}
		return col.Format()
	}
	plain := run(nil)
	instrumented := run(engine.NewMetrics(obs.NewRegistry()))
	if plain != instrumented {
		t.Error("report changed when metrics attached")
	}
	if plain == "" {
		t.Fatal("empty report; workload is broken")
	}
}
