package harness_test

import (
	"fmt"
	"testing"

	"repro/internal/harness"
	"repro/internal/scenario"
)

// BenchmarkIngest measures live-ingest throughput (events/sec through the
// trace-ingest server) at a few session multiplexing levels. One iteration
// streams the recorded workload through every session of the level — this is
// the ingest bench smoke CI runs with -benchtime 1x.
func BenchmarkIngest(b *testing.B) {
	w := harness.PerfWorkload{Threads: 2, Iters: 300, Slots: 32, Seed: 1, Blocks: 32}
	_, log, err := w.RecordTrace()
	if err != nil {
		b.Fatal(err)
	}
	for _, sessions := range []int{1, 4} {
		b.Run(fmt.Sprintf("sessions%d", sessions), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := harness.IngestBenchLog(log, scenario.AllTools, []int{sessions})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res[0].EventsPerSec, "events/sec")
			}
		})
	}
}
