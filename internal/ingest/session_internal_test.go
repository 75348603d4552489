package ingest

import (
	"fmt"
	"strings"
	"testing"
)

// TestSnapshotRetentionCap pins the per-session snapshot bound: a
// never-ending stream snapshotting forever keeps only the newest
// maxSessionSnapshots entries, numbering in FormatSnapshots stays global,
// and the live event count tracks the latest snapshot.
func TestSnapshotRetentionCap(t *testing.T) {
	sess := &Session{ID: 1, Name: "long"}
	const total = maxSessionSnapshots + 37
	for i := 1; i <= total; i++ {
		sess.addSnapshot(Snapshot{
			Events:   int64(i * 10),
			Report:   fmt.Sprintf("report %d", i),
			Manifest: fmt.Sprintf("seq=%d tool=t kind=Race stack=1 count=1\n", i),
		})
	}
	snaps := sess.Snapshots()
	if len(snaps) != maxSessionSnapshots {
		t.Fatalf("retained %d snapshots, want %d", len(snaps), maxSessionSnapshots)
	}
	if snaps[len(snaps)-1].Events != total*10 {
		t.Errorf("newest snapshot events = %d, want %d", snaps[len(snaps)-1].Events, total*10)
	}
	if snaps[0].Events != int64(total-maxSessionSnapshots+1)*10 {
		t.Errorf("oldest retained snapshot events = %d", snaps[0].Events)
	}
	if sess.Events() != total*10 {
		t.Errorf("live events = %d, want %d", sess.Events(), total*10)
	}
	text := sess.FormatSnapshots()
	if !strings.Contains(text, fmt.Sprintf("%d snapshot(s) (%d older discarded)", maxSessionSnapshots, total-maxSessionSnapshots)) {
		t.Errorf("header does not account for discards:\n%s", strings.SplitN(text, "\n", 2)[0])
	}
	if !strings.Contains(text, fmt.Sprintf("== snapshot %d: events=%d\n", total, total*10)) {
		t.Error("global snapshot numbering lost after discards")
	}
}

// TestFoldableRequiresDone pins the retire/delivery race fix: a session
// marked reported whose handler has not yet finished delivering (it can
// still downgrade to failed) must not be foldable.
func TestFoldableRequiresDone(t *testing.T) {
	sess := &Session{ID: 2, Name: "in-delivery", met: newServerMetrics(nil), state: StateReported}
	if sess.foldable() {
		t.Error("reported-but-undelivered session is foldable")
	}
	sess.fail(fmt.Errorf("client went away mid-report"))
	sess.markDone()
	if !sess.foldable() {
		t.Error("failed+done session not foldable")
	}
	if sess.State() != StateFailed {
		t.Errorf("state = %v, want failed", sess.State())
	}

	streaming := &Session{ID: 3, Name: "live", met: newServerMetrics(nil), state: StateStreaming}
	streaming.markDone() // done alone is not enough either
	if streaming.foldable() {
		t.Error("non-terminal session is foldable")
	}
}
