package ingest_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/tracelog"
)

// TestIncrementalReports streams one session in paced parts against a server
// with a short report interval and pins the incremental-report contract:
// snapshots are taken mid-stream, each manifest is a prefix-consistent
// subset of the final report's manifest, the final report is byte-identical
// to an offline replay (snapshots never perturb it), and the query surface
// ("session", "snapshots", "sessions") serves the same data over the wire.
func TestIncrementalReports(t *testing.T) {
	srv, addr := startServer(t, ingest.Config{ReportInterval: time.Millisecond})
	log := recordScenario(t, 1, true)
	want := offlineReport(t, log)
	finalCol, err := scenario.RunOffline(nil, log)
	if err != nil {
		t.Fatal(err)
	}
	wantManifest := finalCol.Manifest()
	total, err := scenario.CountEvents(log)
	if err != nil {
		t.Fatal(err)
	}

	c, err := ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Hello("inc"); err != nil {
		t.Fatal(err)
	}
	// Four parts with inter-part pauses longer than the report interval:
	// every pause arms the ticker, so the server snapshots at each following
	// part boundary — genuinely mid-stream.
	quarter := len(log) / 4
	for i := 0; i < 4; i++ {
		end := (i + 1) * quarter
		if i == 3 {
			end = len(log)
		}
		if err := c.SendEvents(log[i*quarter : end]); err != nil {
			t.Fatal(err)
		}
		if i < 3 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	got, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("final report with snapshots != offline replay:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	sessions := srv.Sessions()
	if len(sessions) != 1 {
		t.Fatalf("registry has %d sessions", len(sessions))
	}
	sess := sessions[0]
	waitSession(t, sess)
	snaps := sess.Snapshots()
	if len(snaps) == 0 {
		t.Fatal("no incremental snapshots despite paced stream and 1ms interval")
	}
	midStream := false
	for i, sn := range snaps {
		if err := report.PrefixConsistent(sn.Manifest, wantManifest); err != nil {
			t.Errorf("snapshot %d: %v", i+1, err)
		}
		if sn.Events <= 0 || sn.Events > total {
			t.Errorf("snapshot %d events = %d (trace has %d)", i+1, sn.Events, total)
		}
		if sn.Events < total {
			midStream = true
		}
	}
	if !midStream {
		t.Error("every snapshot saw the full stream; none was mid-stream")
	}

	// The query surface serves the same data over the wire.
	q, err := ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	text, err := q.Snapshots("inc")
	q.Close()
	if err != nil {
		t.Fatal(err)
	}
	if text != sess.FormatSnapshots() {
		t.Error("snapshots query differs from Session.FormatSnapshots")
	}
	if !strings.Contains(text, fmt.Sprintf("%d snapshot(s)", len(snaps))) {
		t.Errorf("snapshots response header wrong:\n%s", text)
	}
	q, err = ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	text, err = q.Query("session inc")
	q.Close()
	if err != nil {
		t.Fatal(err)
	}
	if text != want {
		t.Error("session query != final report")
	}
	q, err = ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	text, err = q.Query("sessions")
	q.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "name=inc state=reported") {
		t.Errorf("sessions listing missing the session:\n%s", text)
	}
}

// TestIdleTimeout pins the stalled-client contract: a client that handshakes
// and then stops sending is failed after Config.IdleTimeout and releases its
// MaxSessions slot — a subsequent session on the single-slot server must go
// through without waiting for shutdown.
func TestIdleTimeout(t *testing.T) {
	srv, addr := startServer(t, ingest.Config{MaxSessions: 1, IdleTimeout: 50 * time.Millisecond})
	log := recordScenario(t, 2, true)

	stalled, err := ingest.DialSpec(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	fw := tracelog.NewFrameWriter(stalled)
	if err := fw.Hello("stalled"); err != nil {
		t.Fatal(err)
	}
	if err := fw.Events(log[:len(log)/3]); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	// ... and now the client goes silent, holding the only session slot.

	deadline := time.Now().Add(10 * time.Second)
	for {
		sessions := srv.Sessions()
		if len(sessions) == 1 && sessions[0].State() == ingest.StateFailed {
			if sessions[0].Err() == nil {
				t.Error("timed-out session has nil Err")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stalled session never failed (idle timeout did not fire)")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The slot must be free again: a live session completes normally.
	c, err := ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.StreamTrace("after-stall", log, 0); err != nil {
		t.Fatalf("session after a timed-out one: %v", err)
	}
	if agg := srv.Aggregate(); agg.Failed != 1 || agg.Reported != 1 {
		t.Errorf("aggregate = %d failed / %d reported, want 1/1", agg.Failed, agg.Reported)
	}
}

// TestMetadataResolvedSession pins the streaming-resolver contract: a
// session that sends its interned stack/block tables as metadata frames gets
// a report that (a) is byte-identical to an offline replay resolving against
// the same tables and (b) actually contains resolved stack frames — closing
// the "server-side reports render without stack resolution" gap.
func TestMetadataResolvedSession(t *testing.T) {
	_, addr := startServer(t, ingest.Config{})
	s := scenario.Generate(scenario.GenConfig{Seed: 1})
	v, log, err := scenario.Record(s, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	md := scenario.CaptureMetadata(v)
	if md.Empty() {
		t.Fatal("captured metadata is empty; scenario guests should intern stacks")
	}
	col, err := scenario.RunOffline(scenario.Resolver(md), log)
	if err != nil {
		t.Fatal(err)
	}
	want := col.Format()

	c, err := ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.StreamTraceMeta("resolved", md, log, 512)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("resolved live report != resolved offline replay:\n--- live ---\n%s--- offline ---\n%s", got, want)
	}
	if !strings.Contains(got, "   at ") {
		t.Errorf("live report carries no resolved frames:\n%s", got)
	}

	// Control: the same trace without metadata renders unresolved, exactly
	// like the nil-resolver offline replay.
	c2, err := ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	plain, err := c2.StreamTrace("unresolved", log, 512)
	if err != nil {
		t.Fatal(err)
	}
	if plain != offlineReport(t, log) {
		t.Error("metadata-free live report != nil-resolver offline replay")
	}
	if strings.Contains(plain, "   at ") {
		t.Error("metadata-free report unexpectedly resolved frames")
	}
}

// TestRetentionFold pins that the retention policy is aggregate-preserving:
// a server bounded to 2 retained terminal sessions serves the byte-exact
// same merged warnings, counts, and summaries over 6 sessions (one torn) as
// an unbounded server — while its registry holds only the retained tail.
func TestRetentionFold(t *testing.T) {
	logs := make([][]byte, 5)
	for i := range logs {
		logs[i] = recordScenario(t, int64(i%3+1), true)
	}
	run := func(cfg ingest.Config) (*ingest.Server, string) {
		srv, addr := startServer(t, cfg)
		// One torn session first (it folds as failed), then five clean ones,
		// strictly sequentially so both servers see the same open order.
		conn, err := ingest.DialSpec(addr)
		if err != nil {
			t.Fatal(err)
		}
		fw := tracelog.NewFrameWriter(conn)
		if err := fw.Hello("torn"); err != nil {
			t.Fatal(err)
		}
		if err := fw.Events(logs[0][:len(logs[0])/2]); err != nil {
			t.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		for {
			if sessions := srv.Sessions(); len(sessions) > 0 {
				all := srv.Aggregate()
				if all.Failed == 1 {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
		for i, log := range logs {
			c, err := ingest.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.StreamTrace(fmt.Sprintf("r%d", i), log, 0); err != nil {
				t.Fatal(err)
			}
			c.Close()
		}
		return srv, addr
	}

	bounded, boundedAddr := run(ingest.Config{RetainSessions: 2})
	unbounded, _ := run(ingest.Config{})

	// Eviction runs in each handler's epilogue; give the last one a moment.
	deadline := time.Now().Add(10 * time.Second)
	for len(bounded.Sessions()) > 2 {
		if time.Now().After(deadline) {
			t.Fatalf("registry still holds %d sessions, want <= 2", len(bounded.Sessions()))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := len(unbounded.Sessions()); n != 6 {
		t.Fatalf("unbounded registry holds %d sessions, want 6", n)
	}

	a, b := bounded.Aggregate(), unbounded.Aggregate()
	if a.Sessions != b.Sessions || a.Reported != b.Reported || a.Failed != b.Failed || a.Events != b.Events {
		t.Errorf("aggregate counts diverge: retained %d/%d/%d/%d vs unbounded %d/%d/%d/%d",
			a.Sessions, a.Reported, a.Failed, a.Events, b.Sessions, b.Reported, b.Failed, b.Events)
	}
	if a.Folded != 4 {
		t.Errorf("folded = %d, want 4 (6 terminal - 2 retained)", a.Folded)
	}
	if !reflect.DeepEqual(a.ByTool, b.ByTool) {
		t.Errorf("ByTool diverges: %v vs %v", a.ByTool, b.ByTool)
	}
	if !reflect.DeepEqual(a.Summaries, b.Summaries) {
		t.Errorf("Summaries diverge: %v vs %v", a.Summaries, b.Summaries)
	}
	if a.Merged.Format() != b.Merged.Format() {
		t.Errorf("merged reports diverge after folding:\n--- retained ---\n%s--- unbounded ---\n%s",
			a.Merged.Format(), b.Merged.Format())
	}

	// Folded sessions are gone from the per-session surfaces.
	if bounded.SessionByName("torn") != nil {
		t.Error("folded session still resolvable by name")
	}
	q, err := ingest.Dial(boundedAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, err := q.Snapshots("torn"); !errors.Is(err, tracelog.ErrRemote) {
		t.Errorf("snapshots query for folded session = %v, want remote error", err)
	}
}
