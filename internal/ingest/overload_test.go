package ingest_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/tracelog"
)

// stallHolder handshakes a raw session connection and then goes silent, so
// it occupies one MaxSessions slot indefinitely (until the test closes it or
// the server shuts down). It returns once the server has registered the
// session — i.e. once the slot is definitely held.
func stallHolder(t *testing.T, srv *ingest.Server, addr, name string) net.Conn {
	t.Helper()
	conn, err := ingest.DialSpec(addr)
	if err != nil {
		t.Fatal(err)
	}
	fw := tracelog.NewFrameWriter(conn)
	if err := fw.Hello(name); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.SessionByName(name) == nil {
		if time.Now().After(deadline) {
			t.Fatal("stalled holder session never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return conn
}

// TestSlotWaitBounded is the regression test for the MaxSessions stall: with
// AdmitTimeout set, a connection that cannot get an analysis slot is answered
// with a typed busy error (carrying a retry-after hint) within the bound,
// instead of parking on the semaphore until the holder goes away.
func TestSlotWaitBounded(t *testing.T) {
	srv, addr := startServer(t, ingest.Config{
		MaxSessions:  1,
		AdmitTimeout: 100 * time.Millisecond,
	})
	holder := stallHolder(t, srv, addr, "holder")
	defer holder.Close()

	log := recordScenario(t, 1, true)
	c, err := ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.StreamTrace("late", log, 0)
	waited := time.Since(start)
	if !errors.Is(err, tracelog.ErrBusy) {
		t.Fatalf("slot-starved session error = %v, want ErrBusy", err)
	}
	if !errors.Is(err, tracelog.ErrRemote) {
		t.Error("busy rejection does not match ErrRemote (older callers must keep working)")
	}
	if d, ok := tracelog.RetryAfterHint(err); !ok || d <= 0 {
		t.Errorf("busy rejection carries no retry-after hint (got %v, ok=%v): %v", d, ok, err)
	}
	// Generous bound: the point is "within the admission deadline", not
	// "parked until the holder leaves" (which here would be forever).
	if waited > 10*time.Second {
		t.Errorf("busy answer took %v, want roughly the 100ms admission bound", waited)
	}
}

// TestShutdownReleasesSlotWaiter pins the other half of the stall bugfix: a
// connection parked waiting for a slot with no deadline configured (the
// legacy delay-not-drop mode) must be unparked by Shutdown instead of
// outliving the server on the semaphore — the seed hung here forever.
func TestShutdownReleasesSlotWaiter(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := ingest.NewServer(ingest.Config{
		Tools:       scenario.AllTools,
		MaxSessions: 1,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	addr := "tcp:" + ln.Addr().String()

	holder := stallHolder(t, srv, addr, "holder")
	defer holder.Close()

	// The waiter handshakes and parks on the full semaphore (AdmitTimeout
	// and IdleTimeout are both zero: unbounded wait, minus shutdown).
	waiter, err := ingest.DialSpec(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer waiter.Close()
	wfw := tracelog.NewFrameWriter(waiter)
	if err := wfw.Hello("waiter"); err != nil {
		t.Fatal(err)
	}
	if err := wfw.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for reg.Series()["ingest_slot_waiters"] != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked on the slot semaphore")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Shutdown must return: the grace expires on the stalled holder, and the
	// parked waiter is unparked through the rejection path rather than
	// keeping the handler (and so Shutdown's wait) alive forever.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(ctx) }()
	select {
	case err := <-shutdownErr:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("Shutdown = %v, want deadline exceeded (stalled holder forced)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung on a parked slot waiter")
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if got := reg.Series()[`ingest_admission_rejected_total{reason="shutdown"}`]; got != 1 {
		t.Errorf("shutdown rejections = %d, want 1", got)
	}
}

// TestOverloadFlood is the overload conformance run: 64 sessions flood a
// 4-slot server with bounded admission, adaptive sampling and the
// degradation ladder on. Every session either completes or is rejected with
// a typed busy error; for every completed session the shed accounting is
// exact (events analysed + sampled out = events the stream carried), a
// degraded report says so up front, and an undegraded report is still
// byte-identical to the offline replay. CI runs this under -race.
//
// The flood comes in two waves so that both fates occur on every run. Wave 1
// arrives while stalled holders occupy all four slots: each of its sessions
// outwaits the 10ms admission bound and is rejected. The holders then go
// away, and wave 2 runs on the free slots, where its sessions complete or
// (if the slots stay busy past the bound) are rejected too.
func TestOverloadFlood(t *testing.T) {
	log := recordScenario(t, 2, true)
	want := offlineReport(t, log)
	total, err := scenario.CountEvents(log)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	srv, addr := startServer(t, ingest.Config{
		MaxSessions:       4,
		AdmitTimeout:      10 * time.Millisecond,
		AdaptiveSampling:  true,
		DegradationLadder: true,
		Metrics:           reg,
	})

	const n, wave = 64, 32
	reports := make([]string, n)
	errs := make([]error, n)
	durs := make([]time.Duration, n)
	flood := func(from, to int) {
		var wg sync.WaitGroup
		for i := from; i < to; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				t0 := time.Now()
				c, err := ingest.Dial(addr)
				if err != nil {
					errs[i] = err
					return
				}
				defer c.Close()
				reports[i], errs[i] = c.StreamTrace(fmt.Sprintf("flood-%d", i), log, 4<<10)
				durs[i] = time.Since(t0)
			}(i)
		}
		wg.Wait()
	}

	holders := make([]net.Conn, 4)
	for k := range holders {
		holders[k] = stallHolder(t, srv, addr, fmt.Sprintf("holder-%d", k))
	}
	flood(0, wave)
	// The holders admitted under pressure shed tools; the aggregate counts
	// them as degraded although they never report.
	holderDegraded := 0
	for k, conn := range holders {
		conn.Close()
		sess := srv.SessionByName(fmt.Sprintf("holder-%d", k))
		if st := waitSession(t, sess); st != ingest.StateFailed {
			t.Fatalf("holder-%d ended %v, want failed", k, st)
		}
		if sess.Degraded() {
			holderDegraded++
		}
	}
	flood(wave, n)

	completed, rejected := 0, 0
	for i, err := range errs {
		switch {
		case err == nil:
			completed++
		case errors.Is(err, tracelog.ErrBusy):
			rejected++
			if d, ok := tracelog.RetryAfterHint(err); !ok || d <= 0 {
				t.Errorf("session %d: busy rejection without retry-after hint: %v", i, err)
			}
			if durs[i] > 30*time.Second {
				t.Errorf("session %d: busy answer took %v — the admission wait was not bounded", i, durs[i])
			}
		default:
			t.Errorf("session %d: unexpected error under flood: %v", i, err)
		}
	}
	if completed+rejected != n {
		t.Fatalf("completed %d + rejected %d != %d sessions", completed, rejected, n)
	}
	if completed < 1 {
		t.Fatal("no session completed under flood")
	}
	if rejected < 1 {
		t.Fatal("no session rejected under flood (wave 1 arrived with every slot held)")
	}
	t.Logf("flood: %d completed, %d rejected busy", completed, rejected)

	sessByName := make(map[string]*ingest.Session)
	for _, sess := range srv.Sessions() {
		sessByName[sess.Name] = sess
	}
	var sampledSum int64
	degraded := 0
	for i := range errs {
		if errs[i] != nil {
			continue
		}
		sess := sessByName[fmt.Sprintf("flood-%d", i)]
		if sess == nil {
			t.Fatalf("completed session flood-%d missing from the registry", i)
		}
		waitSession(t, sess)
		if got := sess.Events() + sess.SampledOut(); got != total {
			t.Errorf("flood-%d: analysed %d + sampled-out %d = %d, want the stream's %d — shed accounting must be exact",
				i, sess.Events(), sess.SampledOut(), got, total)
		}
		sampledSum += sess.SampledOut()
		if sess.Degraded() {
			degraded++
			if !strings.HasPrefix(reports[i], "== degraded:") {
				t.Errorf("flood-%d: degraded session's report lacks the degraded header:\n%s",
					i, strings.SplitN(reports[i], "\n", 2)[0])
			}
		} else if reports[i] != want {
			t.Errorf("flood-%d: undegraded report differs from the offline replay", i)
		}
		// A "session" query serves exactly what the client received,
		// degraded header included.
		q, err := ingest.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.Query(fmt.Sprintf("session flood-%d", i))
		q.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got != reports[i] {
			t.Errorf("flood-%d: session query differs from the report its client received (degraded=%v)",
				i, sess.Degraded())
		}
	}

	agg := srv.Aggregate()
	if agg.Reported != completed {
		t.Errorf("aggregate reported = %d, want %d (rejected sessions never register)", agg.Reported, completed)
	}
	if agg.SampledOut != sampledSum {
		t.Errorf("aggregate sampled-out = %d, want the per-session sum %d", agg.SampledOut, sampledSum)
	}
	if agg.Degraded != degraded+holderDegraded {
		t.Errorf("aggregate degraded = %d, want %d completed + %d holder(s)", agg.Degraded, degraded, holderDegraded)
	}
	if degraded > 0 && !strings.Contains(agg.Format(), "== degraded:") {
		t.Error("aggregate with degraded sessions does not disclose them")
	}
	series := reg.Series()
	gotRejects := series[`ingest_admission_rejected_total{reason="slots"}`]
	if gotRejects != int64(rejected) {
		t.Errorf("admission rejections metric = %d, want %d", gotRejects, rejected)
	}
	if got := series["ingest_sampled_events_total"]; got != sampledSum {
		t.Errorf("sampled events metric = %d, want %d", got, sampledSum)
	}
}

// TestDegradedSessionQuery pins the "session <name>" query of a degraded
// session: with one of two slots held, a session is admitted at full
// pressure, sheds tools and samples accesses, and the query serves byte for
// byte the report — degraded header included — that its client received.
func TestDegradedSessionQuery(t *testing.T) {
	srv, addr := startServer(t, ingest.Config{
		MaxSessions:       2,
		AdaptiveSampling:  true,
		DegradationLadder: true,
	})
	holder := stallHolder(t, srv, addr, "holder")
	defer holder.Close()

	c, err := ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.StreamTrace("degraded", recordScenario(t, 2, true), 0)
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(got, "== degraded:") {
		t.Fatalf("session admitted at full pressure is not degraded:\n%s", got)
	}
	q, err := ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	text, err := q.Query("session degraded")
	if err != nil {
		t.Fatal(err)
	}
	if text != got {
		t.Errorf("session query differs from the degraded report its client received:\n--- query ---\n%s--- client ---\n%s",
			text, got)
	}
}

// TestOverloadFeaturesZeroPressureIdentity pins the hard invariant: with
// bounded admission, adaptive sampling, the degradation ladder and a fold
// site cap all configured but no pressure applied (sessions one at a time,
// slots to spare), every report is byte-identical to the offline replay —
// i.e. to the report of a server without any overload machinery. CI runs
// this under -race. Each session runs as one shard: the sequential pipeline.
func TestOverloadFeaturesZeroPressureIdentity(t *testing.T) {
	corpus := buildCorpus(t, 4)
	t.Run("shards1", func(t *testing.T) {
		reg := obs.NewRegistry()
		_, addr := startServer(t, ingest.Config{
			MaxSessions:       64,
			AdmitTimeout:      time.Second,
			AdaptiveSampling:  true,
			DegradationLadder: true,
			FoldSiteCap:       8,
			Metrics:           reg,
		})
		for _, entry := range corpus {
			c, err := ingest.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.StreamTrace(entry.name, entry.log, 512)
			c.Close()
			if err != nil {
				t.Fatalf("%s: %v", entry.name, err)
			}
			if got != entry.want {
				t.Errorf("%s: report with overload features enabled differs at zero pressure:\n--- live ---\n%s--- offline ---\n%s",
					entry.name, got, entry.want)
			}
		}
		series := reg.Series()
		for _, name := range []string{
			"ingest_sampled_events_total",
			"ingest_degraded_sessions_total",
		} {
			if series[name] != 0 {
				t.Errorf("%s = %d at zero pressure, want 0", name, series[name])
			}
		}
	})
}

// TestFoldSiteCapCompaction drives the bounded retention fold end to end:
// with a site cap of 1 and three distinct buggy sessions folded, the
// aggregate must disclose exactly what the compaction discarded.
func TestFoldSiteCapCompaction(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr := startServer(t, ingest.Config{
		RetainSessions: 1,
		FoldSiteCap:    1,
		Metrics:        reg,
	})
	for seed := int64(1); seed <= 3; seed++ {
		log := recordScenario(t, seed, true)
		c, err := ingest.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.StreamTrace(fmt.Sprintf("fold-%d", seed), log, 0); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	// Folding runs on the handler goroutine after report delivery; poll
	// until both folds (three sessions, one retained) have landed. An
	// earlier aggregate can already show the first fold's compaction while
	// the second is still to come, and the metric read below would then see
	// a later instant than the aggregate.
	deadline := time.Now().Add(10 * time.Second)
	var agg *ingest.Aggregate
	for {
		agg = srv.Aggregate()
		if agg.Folded == 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if agg.Folded != 2 {
		t.Fatalf("folded = %d, want 2 (3 sessions - 1 retained)", agg.Folded)
	}
	if agg.CompactedSites == 0 {
		t.Fatal("fold site cap 1 over three distinct buggy sessions compacted nothing")
	}
	if agg.CompactedOccurrences < agg.CompactedSites {
		t.Errorf("compacted %d site(s) but only %d occurrence(s)", agg.CompactedSites, agg.CompactedOccurrences)
	}
	if !strings.Contains(agg.Format(), "== compaction:") {
		t.Error("aggregate does not disclose the compaction")
	}
	if got := reg.Series()["ingest_fold_compacted_sites_total"]; got != int64(agg.CompactedSites) {
		t.Errorf("compaction metric = %d, want %d", got, agg.CompactedSites)
	}
}

// TestAdaptiveReportInterval pins the pressure-adaptive snapshot cadence: at
// sustained high pressure (a full one-slot server) most ticks are deferred
// (one in snapshotDeferStride taken), the deferral count is surfaced in the
// session's snapshot listing, and at zero pressure the cadence is untouched.
func TestAdaptiveReportInterval(t *testing.T) {
	log := recordScenario(t, 1, true)

	stream := func(srv *ingest.Server, addr, name string) {
		t.Helper()
		c, err := ingest.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Hello(name); err != nil {
			t.Fatal(err)
		}
		// ~10 report-interval ticks while the stream is live.
		for i := 0; i < 10; i++ {
			end := (i + 1) * 64
			if end > len(log) {
				end = len(log)
			}
			if err := c.SendEvents(log[i*64 : end]); err != nil {
				t.Fatal(err)
			}
			time.Sleep(25 * time.Millisecond)
		}
		if _, err := c.Finish(); err != nil {
			t.Fatal(err)
		}
	}

	// One slot: the session itself saturates the server, pressure is full
	// for its whole life, so the stride must defer most ticks.
	srv, addr := startServer(t, ingest.Config{
		MaxSessions: 1, ReportInterval: 20 * time.Millisecond, AdaptiveReportInterval: true,
	})
	stream(srv, addr, "pressured")
	sess := srv.SessionByName("pressured")
	if sess == nil {
		t.Fatal("session not registered")
	}
	deferred := sess.SnapshotsDeferred()
	if deferred == 0 {
		t.Error("no snapshot ticks deferred at full pressure")
	}
	if !strings.Contains(sess.FormatSnapshots(), "deferred under pressure") {
		t.Errorf("snapshot listing does not disclose deferrals:\n%s", sess.FormatSnapshots())
	}

	// Plenty of slots: zero pressure, the adaptive cadence must be inert.
	calm, caddr := startServer(t, ingest.Config{
		MaxSessions: 8, ReportInterval: 20 * time.Millisecond, AdaptiveReportInterval: true,
	})
	stream(calm, caddr, "calm")
	if sess := calm.SessionByName("calm"); sess.SnapshotsDeferred() != 0 {
		t.Errorf("%d ticks deferred at zero pressure, want 0", sess.SnapshotsDeferred())
	}
}
