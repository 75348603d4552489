package highlevel_test

import (
	"bytes"
	"testing"

	"repro/internal/harness"
	"repro/internal/highlevel"
	"repro/internal/tracelog"
)

// TestViewConsistencyScale replays the locked table at 256 slots — four
// threads with 256 distinct views each, the size at which the map-based
// analysis takes seconds per session — and holds Finish to the oracle.
// The workload is view consistent, so both must report nothing.
func TestViewConsistencyScale(t *testing.T) {
	w := harness.PerfWorkload{Threads: 4, Iters: 2000, Slots: 256, Seed: 1}
	_, log, err := w.RecordTrace()
	if err != nil {
		t.Fatal(err)
	}
	var got, want highlevel.Recorder
	d := highlevel.New(highlevel.Config{}, &got)
	if _, err := tracelog.Replay(bytes.NewReader(log), d); err != nil {
		t.Fatal(err)
	}
	highlevel.RefFinish(d, &want)
	d.Finish()
	if len(got) != 0 || len(want) != 0 {
		t.Fatalf("Finish reported %d warning(s), the oracle %d; want none from either", len(got), len(want))
	}
}
