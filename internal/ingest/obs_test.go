package ingest_test

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/tracelog"
)

// TestObsConformance pins the hard observability requirement on the live
// path: a server with a metrics registry attached produces byte-identical
// session reports to one without, and both match the offline replay of the
// same trace. (The offline half of the matrix is
// TestEngineMetricsConformance.)
func TestObsConformance(t *testing.T) {
	log := recordScenario(t, 3, true)
	want := offlineReport(t, log)
	run := func(reg *obs.Registry) string {
		t.Helper()
		_, addr := startServer(t, ingest.Config{Metrics: reg})
		c, err := ingest.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rep, err := c.StreamTrace("conf", log, 0)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := run(nil)
	instrumented := run(obs.NewRegistry())
	if plain != instrumented {
		t.Error("live report changed when metrics attached")
	}
	if plain != want {
		t.Error("live report differs from offline replay")
	}
}

// TestStatsQuery pins the "stats" query: a metrics-enabled server answers
// with its Prometheus-text snapshot carrying the series a session must have
// moved, and a server without a registry answers with a useful error.
func TestStatsQuery(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr := startServer(t, ingest.Config{Metrics: reg})
	log := recordScenario(t, 4, true)

	c, err := ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.StreamTrace("stats-sess", log, 0); err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitSession(t, srv.Sessions()[0])

	q, err := ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	text, err := q.Stats()
	if err != nil {
		t.Fatalf("stats query: %v", err)
	}
	series := parseSeries(t, text)
	for name, min := range map[string]int64{
		"engine_events_decoded_total":                  1,
		"engine_batches_flushed_total":                 1,
		"ingest_sessions_opened_total":                 1,
		"ingest_events_total":                          1,
		`ingest_sessions{state="reported"}`:            1,
		`ingest_frames_read_total{kind="hello"}`:       1,
		`ingest_frames_read_total{kind="events"}`:      1,
		`ingest_frames_read_total{kind="end"}`:         1,
		`ingest_frame_bytes_read_total{kind="events"}`: int64(len(log)),
		"ingest_slot_wait_ns_count":                    1,
	} {
		if got := series[name]; got < min {
			t.Errorf("stats series %s = %d, want >= %d", name, got, min)
		}
	}
	if got := series[`ingest_sessions{state="streaming"}`]; got != 0 {
		t.Errorf("streaming gauge = %d after session completed, want 0", got)
	}

	// Unconfigured server: the query fails with a pointer at the cause.
	_, addr2 := startServer(t, ingest.Config{})
	q2, err := ingest.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if _, err := q2.Stats(); err == nil || !strings.Contains(err.Error(), "no metrics registry") {
		t.Errorf("stats without registry: err = %v, want 'no metrics registry'", err)
	}
}

// parseSeries flattens a Prometheus text snapshot into name -> value,
// skipping chrome lines. Values in this codebase's registry are integers.
func parseSeries(t *testing.T, text string) map[string]int64 {
	t.Helper()
	out := make(map[string]int64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("bad exposition line %q", line)
		}
		var v int64
		if _, err := fmt.Sscanf(line[i+1:], "%d", &v); err != nil {
			t.Fatalf("bad value in line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestSessionsQueryColumns pins the extended "sessions" listing: every entry
// carries events=, snaps= and age= columns.
func TestSessionsQueryColumns(t *testing.T) {
	_, addr := startServer(t, ingest.Config{})
	log := recordScenario(t, 5, false)
	c, err := ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.StreamTrace("cols", log, 0); err != nil {
		t.Fatal(err)
	}
	c.Close()

	q, err := ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	text, err := q.Query("sessions")
	if err != nil {
		t.Fatal(err)
	}
	line := ""
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(l, "id=") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("no session line in listing:\n%s", text)
	}
	for _, col := range []string{"name=cols", "state=reported", "events=", "snaps=", "age="} {
		if !strings.Contains(line, col) {
			t.Errorf("session line %q missing %q", line, col)
		}
	}
}

// TestDrainSummaryFlushed: a session mid-stream when Shutdown begins that
// completes within the grace period is counted as flushed.
func TestDrainSummaryFlushed(t *testing.T) {
	srv, err := ingest.NewServer(ingest.Config{Tools: scenario.AllTools})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw := tracelog.NewFrameWriter(conn)
	fr := tracelog.NewFrameReader(conn)
	log := recordScenario(t, 6, true)
	if err := fw.Hello("late-finisher"); err != nil {
		t.Fatal(err)
	}
	if err := fw.Events(log[:len(log)/2]); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(srv.Sessions()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	// The drain has begun with our session in flight; now finish it.
	if err := fw.Events(log[len(log)/2:]); err != nil {
		t.Fatal(err)
	}
	if err := fw.End(); err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Response(); err != nil {
		t.Fatalf("report after drain began: %v", err)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	<-done
	if d := srv.LastDrain(); d != (ingest.DrainSummary{InFlight: 1, Flushed: 1, Forced: 0}) {
		t.Errorf("drain summary = %+v, want 1 in-flight flushed", d)
	}
}

// TestDrainSummaryForced: a session that never finishes is force-failed when
// the grace period expires, and the summary says so.
func TestDrainSummaryForced(t *testing.T) {
	srv, err := ingest.NewServer(ingest.Config{Tools: scenario.AllTools})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw := tracelog.NewFrameWriter(conn)
	log := recordScenario(t, 7, true)
	if err := fw.Hello("stuck"); err != nil {
		t.Fatal(err)
	}
	if err := fw.Events(log[:len(log)/3]); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(srv.Sessions()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown should report the forced drain")
	}
	<-done
	if d := srv.LastDrain(); d != (ingest.DrainSummary{InFlight: 1, Flushed: 0, Forced: 1}) {
		t.Errorf("drain summary = %+v, want 1 in-flight forced", d)
	}
}
