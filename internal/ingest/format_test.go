package ingest

import (
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/trace"
)

// TestAggregateFormatGolden pins the aggregate rendering byte for byte:
// header, retention line, tool-location and summary blocks, then the merged
// warnings — the shape every "aggregate" query and the traced shutdown dump
// rely on.
func TestAggregateFormatGolden(t *testing.T) {
	merged := report.NewCollector(nil, nil)
	merged.Add(report.Warning{Tool: "lockset", Kind: report.KindRace, Block: 7, Stack: 3})
	a := &Aggregate{
		Sessions: 5,
		Reported: 3,
		Failed:   1,
		Active:   1,
		Folded:   2,
		Events:   1234,
		ByTool:   map[string]int{"lockset": 1},
		Summaries: map[string]trace.ToolSummary{
			"memcheck": {"errors": 2, "leaks": 1},
		},
		Merged: merged,
	}
	want := "== ingest aggregate: 5 session(s) — 3 reported, 1 failed, 1 active; 1234 event(s)\n" +
		"== retention: 2 session(s) folded into the aggregate\n" +
		"== tool locations: lockset=1\n" +
		"== memcheck summary: errors=2 leaks=1\n" +
		merged.Format()
	if got := a.Format(); got != want {
		t.Errorf("Aggregate.Format:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestAggregateFormatEmpty pins the degenerate rendering: no sessions, no
// optional blocks — just the header and an empty merged report.
func TestAggregateFormatEmpty(t *testing.T) {
	a := &Aggregate{Merged: report.NewCollector(nil, nil)}
	want := "== ingest aggregate: 0 session(s) — 0 reported, 0 failed, 0 active; 0 event(s)\n" +
		a.Merged.Format()
	if got := a.Format(); got != want {
		t.Errorf("empty Aggregate.Format:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFormatSessionsGolden pins the "sessions" listing rendering with an
// injected clock: the events/snaps/age columns and the retained/folded
// header.
func TestFormatSessionsGolden(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	sessions := []*Session{
		{
			ID: 3, Name: "live", Opened: now.Add(-90 * time.Second),
			state: StateStreaming, events: 4200,
			snaps: []Snapshot{{Events: 2000}, {Events: 4200}},
		},
		{
			ID: 4, Name: "done", Opened: now.Add(-2*time.Minute - 499*time.Millisecond),
			state: StateReported, events: 10,
		},
	}
	want := "== sessions: 2 retained, 7 folded\n" +
		"id=3 name=live state=streaming events=4200 snaps=2 age=1m30s\n" +
		"id=4 name=done state=reported events=10 snaps=0 age=2m0s\n"
	if got := formatSessionsAt(sessions, 7, now); got != want {
		t.Errorf("formatSessionsAt:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
