package fleet

import (
	"errors"
	"testing"

	"repro/internal/report"
	"repro/internal/trace"
)

// TestFleetAggregateFormatGolden pins the fleet aggregate rendering byte for
// byte: the header (lost sessions counted as failed), the lost, rejected and
// degraded disclosure lines, one line per backend (a dead one with its
// err=), then the tool-location and summary blocks and the merged warnings.
func TestFleetAggregateFormatGolden(t *testing.T) {
	merged := report.NewCollector(nil, nil)
	merged.Add(report.Warning{Tool: "lockset", Kind: report.KindRace, Block: 7, Stack: 3})
	merged.Add(report.Warning{Tool: "memcheck", Kind: report.KindUseAfterFree, Block: 9, Stack: 4})
	a := &FleetAggregate{
		Sessions:   9,
		Reported:   5,
		Failed:     1,
		Lost:       1,
		Rejected:   1,
		Active:     1,
		Events:     4321,
		SampledOut: 77,
		Degraded:   2,
		ByTool:     map[string]int{"lockset": 1, "memcheck": 1},
		Summaries: map[string]trace.ToolSummary{
			"memcheck": {"leaks": 1, "errors": 2},
		},
		Merged: merged,
		Backends: []BackendStatus{
			{Spec: "unix:/tmp/b0.sock", Assigned: 6, Inflight: 1, Reported: 5},
			{Spec: "unix:/tmp/b1.sock", Dead: true, LastErr: errors.New("connection reset"), Assigned: 2, Lost: 1},
		},
	}
	want := "== fleet aggregate: 9 session(s) — 5 reported, 2 failed, 1 active; 4321 event(s)\n" +
		"== lost: 1 session(s) failed with their backend\n" +
		"== rejected: 1 session(s) refused busy by backend admission\n" +
		"== degraded: 2 session(s) analysed under overload — 77 event(s) sampled out\n" +
		"== backend unix:/tmp/b0.sock: state=alive assigned=6 inflight=1 reported=5 lost=0\n" +
		"== backend unix:/tmp/b1.sock: state=dead assigned=2 inflight=0 reported=0 lost=1 err=connection reset\n" +
		"== tool locations: lockset=1 memcheck=1\n" +
		"== memcheck summary: errors=2 leaks=1\n" +
		merged.Format()
	if merged.Format() == "" {
		t.Fatal("golden merged report is empty")
	}
	if got := a.Format(); got != want {
		t.Errorf("FleetAggregate.Format:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
