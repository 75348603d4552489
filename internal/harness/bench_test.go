package harness_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/harness"
)

// sampleBenchDoc builds a minimal valid document.
func sampleBenchDoc() harness.BenchDoc {
	return harness.BenchDoc{
		Schema: harness.BenchSchemaVersion, Date: "2026-08-07",
		Threads: 4, Iters: 2000, Slots: 64, Blocks: 64, Seed: 1,
		GoMaxProc: 1, NumCPU: 1, Shards: 1,
		Overhead: []harness.OverheadRow{{Mode: "native", NsTotal: 100, Ops: 10, NsPerOp: 10}},
		Replay: []harness.ReplayResult{{
			Config: "original", Mode: "sequential", Shards: 1, Events: 1000,
			NsTotal: 50000, NsPerEvt: 50, AllocsPerEvt: 0.4, BytesPerEvt: 12,
		}},
		OnePass: []harness.OnePassResult{{
			Mode: "sequential", Shards: 1, Tools: []string{"helgrind"}, Events: 1000,
			NsTotal: 60000, NsPerEvt: 60, Locations: map[string]int{"helgrind": 2},
		}},
		Ingest: []harness.IngestResult{{
			Sessions: 8, Shards: 1, Events: 8000, NsTotal: 1e6, EventsPerSec: 8e6,
			Obs: map[string]int64{"ingest_events_total": 8000},
		}},
	}
}

// TestBenchDocRoundTrip pins the schema contract: a document survives
// marshal → parse unchanged, and parsing rejects unknown fields, wrong
// versions and implausible rows.
func TestBenchDocRoundTrip(t *testing.T) {
	doc := sampleBenchDoc()
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := harness.ParseBenchDoc(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, doc) {
		t.Errorf("round trip changed the document:\ngot  %+v\nwant %+v", *got, doc)
	}

	bad := func(name string, mutate func(*harness.BenchDoc)) {
		d := sampleBenchDoc()
		mutate(&d)
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := harness.ParseBenchDoc(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	bad("wrong schema version", func(d *harness.BenchDoc) { d.Schema = harness.BenchSchemaVersion + 1 })
	bad("zero gomaxprocs", func(d *harness.BenchDoc) { d.GoMaxProc = 0 })
	bad("empty replay", func(d *harness.BenchDoc) { d.Replay = nil })
	bad("replay without events", func(d *harness.BenchDoc) { d.Replay[0].Events = 0 })
	bad("one-pass without tools", func(d *harness.BenchDoc) { d.OnePass[0].Tools = nil })
	bad("ingest without throughput", func(d *harness.BenchDoc) { d.Ingest[0].EventsPerSec = 0 })

	if _, err := harness.ParseBenchDoc([]byte(`{"schema":1,"surprise":true}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

// TestCommittedBenchFiles validates every BENCH_*.json at the repo root
// against the current schema — the committed performance trajectory must
// stay parseable, or trend tooling silently loses history. At least one
// file must exist: the trajectory is part of the repo's contract.
func TestCommittedBenchFiles(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json committed at the repo root; regenerate with: go run ./cmd/perfbench -json -alloc -ingest > BENCH_<date>.json")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := harness.ParseBenchDoc(data)
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(p), err)
			continue
		}
		if doc.NumCPU < 1 {
			t.Errorf("%s: num_cpu %d", filepath.Base(p), doc.NumCPU)
		}
	}
}
