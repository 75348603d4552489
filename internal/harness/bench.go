package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
)

// The bench-trajectory document: the stable, diffable schema perfbench -json
// emits and BENCH_<date>.json files at the repo root commit. Successive PRs
// append one file per host/date, so ns/event and allocs/event regressions
// show up as a diff against the previous file rather than as folklore. The
// schema lives here (not in cmd/perfbench) so tests can validate committed
// files and the -check mode shares one definition with the emitter.

// BenchSchemaVersion is the current BenchDoc schema. Bump it when a field
// changes meaning or is removed; adding fields is backwards-compatible and
// does not require a bump.
const BenchSchemaVersion = 1

// BenchDoc is the perfbench -json output document.
type BenchDoc struct {
	Schema    int    `json:"schema"`
	Date      string `json:"date,omitempty"` // YYYY-MM-DD the run was taken
	Threads   int    `json:"threads"`
	Iters     int    `json:"iters"`
	Slots     int    `json:"slots"`
	Blocks    int    `json:"blocks"`
	Seed      int64  `json:"seed"`
	GoMaxProc int    `json:"gomaxprocs"`
	NumCPU    int    `json:"num_cpu"`
	// Shards is always 1 in new documents; older ones record the shard
	// count of their "parallel-N" rows.
	Shards int `json:"shards"`

	Overhead []OverheadRow   `json:"overhead"`
	Replay   []ReplayResult  `json:"replay"`
	OnePass  []OnePassResult `json:"one_pass"`
	Ingest   []IngestResult  `json:"ingest,omitempty"`
	// Overload holds the overload-workload measurements (flooded server,
	// bounded admission, adaptive degradation); absent in documents from
	// before the overload subsystem — adding the field is backwards
	// compatible and needs no schema bump.
	Overload []OverloadResult `json:"overload,omitempty"`
}

// OverheadRow is one §4.5 matrix row in machine-readable form.
type OverheadRow struct {
	Mode    string  `json:"mode"`
	NsTotal int64   `json:"ns_total"`
	Steps   int64   `json:"steps"`
	Ops     int64   `json:"ops"`
	NsPerOp float64 `json:"ns_per_op"`
}

// ParseBenchDoc decodes and validates one BENCH document. Unknown fields are
// an error: a field the current schema cannot represent would silently
// vanish on re-emission, breaking the trajectory diff — exactly what the
// CI -check smoke exists to catch.
func ParseBenchDoc(data []byte) (*BenchDoc, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var doc BenchDoc
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("harness: bench doc: %w", err)
	}
	if err := doc.Validate(); err != nil {
		return nil, err
	}
	return &doc, nil
}

// Validate checks the document's internal consistency: version, host facts,
// and that every measurement section carries plausible (positive) numbers.
func (d *BenchDoc) Validate() error {
	if d.Schema != BenchSchemaVersion {
		return fmt.Errorf("harness: bench doc schema %d, want %d", d.Schema, BenchSchemaVersion)
	}
	if d.GoMaxProc < 1 || d.NumCPU < 1 || d.Shards < 1 {
		return fmt.Errorf("harness: bench doc host facts implausible: gomaxprocs=%d num_cpu=%d shards=%d",
			d.GoMaxProc, d.NumCPU, d.Shards)
	}
	if len(d.Overhead) == 0 || len(d.Replay) == 0 || len(d.OnePass) == 0 {
		return fmt.Errorf("harness: bench doc missing a section: overhead=%d replay=%d one_pass=%d",
			len(d.Overhead), len(d.Replay), len(d.OnePass))
	}
	for i, r := range d.Overhead {
		if r.Mode == "" || r.NsTotal <= 0 {
			return fmt.Errorf("harness: bench doc overhead[%d] implausible: %+v", i, r)
		}
	}
	for i, r := range d.Replay {
		if r.Config == "" || r.Mode == "" || r.Events <= 0 || r.NsPerEvt <= 0 {
			return fmt.Errorf("harness: bench doc replay[%d] implausible: %+v", i, r)
		}
	}
	for i, r := range d.OnePass {
		if r.Mode == "" || len(r.Tools) == 0 || r.Events <= 0 || r.NsPerEvt <= 0 {
			return fmt.Errorf("harness: bench doc one_pass[%d] implausible: %+v", i, r)
		}
	}
	for i, r := range d.Ingest {
		if r.Sessions < 1 || r.Events <= 0 || r.EventsPerSec <= 0 {
			return fmt.Errorf("harness: bench doc ingest[%d] implausible: %+v", i, r)
		}
	}
	for i, r := range d.Overload {
		if r.Sessions < 1 || r.MaxSessions < 1 || r.NsTotal <= 0 ||
			r.Completed < 1 || r.Completed+r.Rejected > r.Sessions {
			return fmt.Errorf("harness: bench doc overload[%d] implausible: %+v", i, r)
		}
	}
	return nil
}

// allocMeter measures process-wide heap allocation across a benchmark
// region: a GC plus MemStats baseline at start, a MemStats read at the end.
// The numbers are end-to-end (decode + dispatch + tool analysis across all
// goroutines), the honest pipeline-wide figure — the unit tests pin the
// decode/dispatch layers to zero on their own.
type allocMeter struct {
	m0 runtime.MemStats
}

func startAllocMeter() *allocMeter {
	var a allocMeter
	runtime.GC()
	runtime.ReadMemStats(&a.m0)
	return &a
}

// perEvent returns (allocs/event, bytes/event) since the meter started.
func (a *allocMeter) perEvent(events int64) (float64, float64) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if events <= 0 {
		return 0, 0
	}
	return float64(m1.Mallocs-a.m0.Mallocs) / float64(events),
		float64(m1.TotalAlloc-a.m0.TotalAlloc) / float64(events)
}
