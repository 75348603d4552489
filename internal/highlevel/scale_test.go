package highlevel_test

import (
	"bytes"
	"testing"

	"repro/internal/harness"
	"repro/internal/highlevel"
	"repro/internal/tracelog"
)

// TestViewConsistencyScale replays the locked table at 256 slots — four
// threads with 256 distinct views each — and at 64. The workload is view
// consistent, so Finish must report nothing at either size. The map-based
// oracle checks the 64-slot table only: at 256 slots it alone takes seconds.
func TestViewConsistencyScale(t *testing.T) {
	for _, slots := range []int{64, 256} {
		w := harness.PerfWorkload{Threads: 4, Iters: 2000, Slots: slots, Seed: 1}
		_, log, err := w.RecordTrace()
		if err != nil {
			t.Fatal(err)
		}
		var got, want highlevel.Recorder
		d := highlevel.New(highlevel.Config{}, &got)
		if _, err := tracelog.Replay(bytes.NewReader(log), d); err != nil {
			t.Fatal(err)
		}
		if slots == 64 {
			highlevel.RefFinish(d, &want)
		}
		d.Finish()
		if len(got) != 0 || len(want) != 0 {
			t.Fatalf("%d slots: Finish reported %d warning(s), the oracle %d; want none from either", slots, len(got), len(want))
		}
	}
}
