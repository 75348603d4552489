package fleet_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/scenario"
	"repro/internal/tracelog"
)

// slotRetryAfter is the retry-after hint an ingest server attaches to a
// slot-timeout rejection.
const slotRetryAfter = time.Second

// startServer runs a server on a loopback TCP listener and returns it with
// its dialable "network:address" spec. The server is shut down at test end.
func startServer(t testing.TB, cfg ingest.Config) (*ingest.Server, string) {
	t.Helper()
	if cfg.Tools == nil {
		cfg.Tools = scenario.AllTools
	}
	srv, err := ingest.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, "tcp:" + ln.Addr().String()
}

// recordScenario records one scenario variant and returns its trace.
func recordScenario(t testing.TB, genSeed int64, buggy bool) []byte {
	t.Helper()
	s := scenario.Generate(scenario.GenConfig{Seed: genSeed})
	_, log, err := scenario.Record(s, buggy, 1)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// corpusEntry is one scenario trace with its offline reference report.
type corpusEntry struct {
	name string
	log  []byte
	want string
}

// buildCorpus records both variants of a run of generated scenarios and
// computes each trace's offline six-tool reference report (nil resolver, as
// the server resolves nothing).
func buildCorpus(t testing.TB, seeds int) []corpusEntry {
	t.Helper()
	var out []corpusEntry
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, buggy := range []bool{true, false} {
			log := recordScenario(t, seed, buggy)
			col, err := scenario.RunOffline(nil, log)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, corpusEntry{
				name: fmt.Sprintf("s%d-buggy-%v", seed, buggy),
				log:  log,
				want: col.Format(),
			})
		}
	}
	return out
}

// startBackend runs a backend-mode analyzer server and returns it with its
// dialable spec.
func startBackend(t testing.TB, cfg ingest.Config) (*ingest.Server, string) {
	t.Helper()
	cfg.BackendMode = true
	return startServer(t, cfg)
}

// startRouter runs a router over the given backend specs on a loopback
// listener. The router is shut down at test end.
func startRouter(t testing.TB, backends []string) (*fleet.Router, string) {
	t.Helper()
	rt, err := fleet.NewRouter(fleet.RouterConfig{Backends: backends})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- rt.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("router Serve: %v", err)
		}
	})
	return rt, "tcp:" + ln.Addr().String()
}

// TestRouterConformance is the multi-process acceptance run: the golden
// scenario corpus streamed through a router sharding across three backend
// processes must yield, per session, exactly the report a single-process
// server (and an offline replay) produces — and the fleet aggregate must
// carry the same SiteKeys, per-tool counts and summaries as the one-process
// aggregate over the same sessions. CI runs this under -race.
func TestRouterConformance(t *testing.T) {
	corpus := buildCorpus(t, 7)

	var backends []string
	for i := 0; i < 3; i++ {
		_, spec := startBackend(t, ingest.Config{})
		backends = append(backends, spec)
	}
	rt, raddr := startRouter(t, backends)
	single, saddr := startServer(t, ingest.Config{})

	for _, entry := range corpus {
		for _, target := range []string{raddr, saddr} {
			c, err := ingest.Dial(target)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.StreamTrace(entry.name, entry.log, 512)
			c.Close()
			if err != nil {
				t.Fatalf("%s via %s: %v", entry.name, target, err)
			}
			if got != entry.want {
				t.Errorf("%s via %s: report != offline replay:\n%s", entry.name, target, got)
			}
		}
	}

	fleet := rt.FleetAggregate()
	agg := single.Aggregate()
	if fleet.Sessions != len(corpus) || fleet.Reported != len(corpus) ||
		fleet.Failed != 0 || fleet.Lost != 0 {
		t.Errorf("fleet = %d sessions / %d reported / %d failed / %d lost, want %d/%d/0/0",
			fleet.Sessions, fleet.Reported, fleet.Failed, fleet.Lost, len(corpus), len(corpus))
	}
	if fleet.Events != agg.Events {
		t.Errorf("fleet events = %d, single-process = %d", fleet.Events, agg.Events)
	}
	// The cross-process fold must carry exactly the single process's merged
	// sites: same SiteKeys, same order, same counts — the manifest pins all
	// three.
	if got, want := fleet.Merged.Manifest(), agg.Merged.Manifest(); got != want {
		t.Errorf("fleet merged manifest != single-process manifest:\n--- fleet ---\n%s--- single ---\n%s", got, want)
	}
	if got, want := fmt.Sprint(fleet.ByTool), fmt.Sprint(agg.ByTool); got != want {
		t.Errorf("fleet ByTool = %s, single-process = %s", got, want)
	}
	for name, want := range agg.Summaries {
		if got := fmt.Sprint(fleet.Summaries[name]); got != fmt.Sprint(want) {
			t.Errorf("fleet summary %q = %s, single-process = %v", name, got, want)
		}
	}
	// All three backends should have seen work across 14 corpus sessions;
	// rendezvous hashing spreads distinct names with overwhelming odds.
	used := 0
	for _, st := range fleet.Backends {
		if st.Dead {
			t.Errorf("backend %s dead after a clean run", st.Spec)
		}
		if st.Assigned > 0 {
			used++
		}
	}
	if used < 2 {
		t.Errorf("only %d backend(s) used for %d sessions", used, len(corpus))
	}
}

// TestRouterFoldAcrossBackends pins the site-identity property the SiteKey
// layer exists for: the same bug streamed as many sessions through different
// backend processes folds to ONE site in the fleet aggregate — and the
// aggregate is byte-identical regardless of which backend analysed which
// session. CI runs this under -race.
func TestRouterFoldAcrossBackends(t *testing.T) {
	log := recordScenario(t, 1, true)
	offline, err := scenario.RunOffline(nil, log)
	if err != nil {
		t.Fatal(err)
	}

	var backends []string
	for i := 0; i < 2; i++ {
		_, spec := startBackend(t, ingest.Config{})
		backends = append(backends, spec)
	}
	// Two routers over the SAME backends: each fleet tally is the router's
	// own, and different session names shard differently, so the two runs
	// exercise different backend assignments of the same traces.
	const n = 16
	var formats []string
	for run, prefix := range []string{"alpha", "beta"} {
		rt, raddr := startRouter(t, backends)
		for i := 0; i < n; i++ {
			c, err := ingest.Dial(raddr)
			if err != nil {
				t.Fatal(err)
			}
			_, err = c.StreamTrace(fmt.Sprintf("%s-%d", prefix, i), log, 512)
			c.Close()
			if err != nil {
				t.Fatal(err)
			}
		}
		fleet := rt.FleetAggregate()
		// Every session carried the identical bugs: cross-session,
		// cross-process dedup must fold them to the offline replay's site
		// set, counted n times.
		if got, want := fleet.Merged.Locations(), offline.Locations(); got != want {
			t.Errorf("run %d: fleet has %d distinct sites, offline replay of one session has %d", run, got, want)
		}
		for _, w := range fleet.Merged.Sites() {
			if w.Count%n != 0 {
				t.Errorf("run %d: site %s/%s count %d not a multiple of %d sessions", run, w.Tool, w.Kind, w.Count, n)
			}
		}
		used := 0
		for _, st := range fleet.Backends {
			if st.Assigned > 0 {
				used++
			}
		}
		if used != 2 {
			t.Logf("run %d: all sessions landed on one backend (possible but vanishingly rare)", run)
		}
		formats = append(formats, fleet.Merged.Format())
	}
	if formats[0] != formats[1] {
		t.Errorf("fleet merged report depends on backend assignment:\n--- alpha ---\n%s--- beta ---\n%s",
			formats[0], formats[1])
	}
}

// TestRouterBackendDeath kills one backend mid-session and checks the blast
// radius: the in-flight session on that backend fails with an honest loss
// report, the fleet aggregate counts it as lost (not silently dropped), and
// every future session re-shards onto the survivor and completes.
func TestRouterBackendDeath(t *testing.T) {
	log := recordScenario(t, 2, true)

	servers := make(map[string]*ingest.Server)
	var backends []string
	for i := 0; i < 2; i++ {
		srv, spec := startBackend(t, ingest.Config{})
		servers[spec] = srv
		backends = append(backends, spec)
	}
	rt, raddr := startRouter(t, backends)

	// Open a session and hold it mid-stream so it is in flight on exactly
	// one backend.
	c, err := ingest.Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Hello("victim"); err != nil {
		t.Fatal(err)
	}
	if err := c.SendEvents(log[:256]); err != nil {
		t.Fatal(err)
	}

	// Find which backend holds it, then kill that process.
	var victimSpec string
	deadline := time.Now().Add(5 * time.Second)
	for victimSpec == "" && time.Now().Before(deadline) {
		for _, st := range rt.FleetAggregate().Backends {
			if st.Inflight > 0 {
				victimSpec = st.Spec
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if victimSpec == "" {
		t.Fatal("no backend shows the in-flight session")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired: force-close the backend's connections immediately
	servers[victimSpec].Shutdown(ctx)

	// The held session must now fail with the router's loss report, not hang.
	var lossErr error
	for i := 0; i < 200; i++ {
		if lossErr = c.SendEvents(log[256:512]); lossErr != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if lossErr == nil {
		_, lossErr = c.Finish()
	}
	if lossErr == nil {
		t.Fatal("session survived its backend's death")
	}
	if errors.Is(lossErr, tracelog.ErrRemote) && !strings.Contains(lossErr.Error(), "lost") {
		t.Errorf("loss error does not name the loss: %v", lossErr)
	}

	// Future sessions re-shard across the survivor and complete.
	for i := 0; i < 8; i++ {
		c2, err := ingest.Dial(raddr)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c2.StreamTrace(fmt.Sprintf("after-%d", i), log, 512)
		c2.Close()
		if err != nil {
			t.Fatalf("session %d after backend death: %v", i, err)
		}
		if rep == "" {
			t.Fatalf("session %d: empty report", i)
		}
	}

	fleet := rt.FleetAggregate()
	if fleet.Lost != 1 {
		t.Errorf("fleet lost = %d, want 1", fleet.Lost)
	}
	if fleet.Reported != 8 {
		t.Errorf("fleet reported = %d, want 8", fleet.Reported)
	}
	deadSeen, aliveSeen := 0, 0
	for _, st := range fleet.Backends {
		switch {
		case st.Spec == victimSpec:
			if !st.Dead {
				t.Errorf("victim backend %s not marked dead", st.Spec)
			}
			if st.Lost != 1 {
				t.Errorf("victim backend lost = %d, want 1", st.Lost)
			}
			deadSeen++
		default:
			if st.Dead {
				t.Errorf("survivor backend %s marked dead", st.Spec)
			}
			aliveSeen++
		}
	}
	if deadSeen != 1 || aliveSeen != 1 {
		t.Errorf("backend census dead=%d alive=%d, want 1/1", deadSeen, aliveSeen)
	}
	text := fleet.Format()
	if !strings.Contains(text, "lost: 1 session(s)") {
		t.Errorf("fleet format does not disclose the loss:\n%s", text)
	}
}

// TestRouterBusyRelay pins busy-error relay semantics: a backend admission
// rejection travels through the router as the same typed busy error — hint
// included — the backend produced, the session counts as rejected (not lost),
// and the backend stays in rotation.
func TestRouterBusyRelay(t *testing.T) {
	log := recordScenario(t, 1, true)
	_, spec := startBackend(t, ingest.Config{
		MaxSessions: 1, AdmitTimeout: 30 * time.Millisecond,
	})
	rt, raddr := startRouter(t, []string{spec})

	// Occupy the backend's only slot with a held session.
	holder, err := ingest.Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if err := holder.Hello("holder"); err != nil {
		t.Fatal(err)
	}
	// The whole trace, but no End yet: the slot stays held until Finish.
	if err := holder.SendEvents(log); err != nil {
		t.Fatal(err)
	}
	// Wait until the backend actually holds the slot.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if agg := rt.FleetAggregate(); agg.Active > 0 && agg.Backends[0].Inflight > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	c, err := ingest.Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.StreamTrace("crowded", log, 512)
	c.Close()
	if err == nil {
		t.Fatal("second session admitted past a full backend")
	}
	if !errors.Is(err, tracelog.ErrBusy) {
		t.Fatalf("relayed rejection is not a typed busy error: %v", err)
	}
	if hint, ok := tracelog.RetryAfterHint(err); !ok || hint != slotRetryAfter {
		t.Errorf("retry-after hint = %v (ok=%v), want %v", hint, ok, slotRetryAfter)
	}

	// Release the holder; its session must still complete cleanly.
	if _, err := holder.Finish(); err != nil {
		t.Fatalf("holder session after the rejection: %v", err)
	}

	fleet := rt.FleetAggregate()
	if fleet.Rejected != 1 || fleet.Lost != 0 || fleet.Reported != 1 {
		t.Errorf("fleet = %d rejected / %d lost / %d reported, want 1/0/1", fleet.Rejected, fleet.Lost, fleet.Reported)
	}
	if fleet.Backends[0].Dead {
		t.Error("backend marked dead by an admission rejection")
	}
}

// TestRouterCorruptBackendResult pins the router's third outcome besides a
// relayed refusal and a lost backend: a backend that answers a session with
// a malformed result payload fails that session only. The client is told
// why, the fleet counts the session as failed (not lost), the backend stays
// in rotation, and the next session routed to it completes.
func TestRouterCorruptBackendResult(t *testing.T) {
	log := recordScenario(t, 1, true)
	_, real := startBackend(t, ingest.Config{})
	rt, raddr := startRouter(t, []string{fakeBackend(t, real)})

	c, err := ingest.Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.StreamTrace("garbled", log, 512)
	c.Close()
	if err == nil || !strings.Contains(err.Error(), "router: bad backend result: ") {
		t.Fatalf("corrupt backend result surfaced as %v, want a bad-backend-result error", err)
	}

	c, err = ingest.Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.StreamTrace("after", log, 512)
	c.Close()
	if err != nil || rep == "" {
		t.Fatalf("session after the corrupt result: %q, %v", rep, err)
	}

	fleet := rt.FleetAggregate()
	if fleet.Failed != 1 || fleet.Lost != 0 || fleet.Reported != 1 {
		t.Errorf("fleet = %d failed / %d lost / %d reported, want 1/0/1", fleet.Failed, fleet.Lost, fleet.Reported)
	}
	if !strings.Contains(fleet.Format(), "state=alive") {
		t.Errorf("backend not alive after a corrupt result:\n%s", fleet.Format())
	}
}

// fakeBackend listens on loopback and stands in for the backend at spec. It
// answers the first session itself: it reads the assign and the whole
// stream, then replies with a malformed backend-report payload. Every later
// connection is relayed to spec unchanged. Cleanup waits for every
// connection it served.
func fakeBackend(t *testing.T, spec string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for first := true; ; first = false {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			serve := func() { relayConn(conn, spec) }
			if first {
				serve = func() { garbleSession(t, conn) }
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				serve()
			}()
		}
	}()
	return "tcp:" + ln.Addr().String()
}

func garbleSession(t *testing.T, conn net.Conn) {
	defer conn.Close()
	fr := tracelog.NewFrameReader(conn)
	if kind, _, err := fr.Handshake(); err != nil || kind != tracelog.FrameAssign {
		t.Errorf("fake backend handshake = %v, %v; want an assign", kind, err)
		return
	}
	if _, err := io.Copy(io.Discard, fr); err != nil {
		t.Errorf("fake backend stream: %v", err)
		return
	}
	// A version byte and nothing after it: a truncated result.
	if err := tracelog.NewFrameWriter(conn).BackendReport([]byte{1}); err != nil {
		t.Errorf("fake backend reply: %v", err)
	}
}

// relayConn pipes conn to and from a fresh connection to spec until either
// side closes.
func relayConn(conn net.Conn, spec string) {
	defer conn.Close()
	bc, err := ingest.DialSpec(spec)
	if err != nil {
		return
	}
	defer bc.Close()
	done := make(chan struct{})
	go func() {
		io.Copy(bc, conn)
		bc.Close()
		close(done)
	}()
	io.Copy(conn, bc)
	conn.Close()
	<-done
}

// TestRouterQueries covers the router's query surface: the fleet aggregate
// and per-backend census render, per-session queries are redirected to the
// tier that owns them, and non-backend servers refuse backend handshakes.
func TestRouterQueries(t *testing.T) {
	log := recordScenario(t, 1, true)
	_, spec := startBackend(t, ingest.Config{})
	_, raddr := startRouter(t, []string{spec})

	c, err := ingest.Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.StreamTrace("one", log, 512); err != nil {
		t.Fatal(err)
	}
	c.Close()

	query := func(q string) (string, error) {
		t.Helper()
		qc, err := ingest.Dial(raddr)
		if err != nil {
			t.Fatal(err)
		}
		defer qc.Close()
		return qc.Query(q)
	}
	agg, err := query("aggregate")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(agg, "== fleet aggregate: 1 session(s) — 1 reported") {
		t.Errorf("aggregate header missing:\n%s", agg)
	}
	if !strings.Contains(agg, "== backend "+spec+": state=alive") {
		t.Errorf("aggregate misses backend line:\n%s", agg)
	}
	bk, err := query("backends")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(bk, "census: 1 session(s), 1 reported") {
		t.Errorf("backends census probe missing:\n%s", bk)
	}
	sess, err := query("sessions")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sess, "name=one") || !strings.Contains(sess, "outcome=reported") {
		t.Errorf("sessions listing missing the routed session:\n%s", sess)
	}
	if _, err := query("session one"); err == nil || !strings.Contains(err.Error(), "backend analyzers") {
		t.Errorf("per-session query not redirected: %v", err)
	}
	if _, err := query("nonsense"); err == nil {
		t.Error("unknown query accepted")
	}

	// A plain (non-backend) server must refuse backend handshakes.
	_, plain := startServer(t, ingest.Config{})
	conn, err := ingest.DialSpec(plain)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw := tracelog.NewFrameWriter(conn)
	if err := fw.Assign("sneaky"); err != nil {
		t.Fatal(err)
	}
	if _, err := tracelog.NewFrameReader(conn).BackendResponse(); err == nil ||
		!strings.Contains(err.Error(), "not a backend analyzer") {
		t.Errorf("plain server accepted an assign handshake: %v", err)
	}
}

// TestRouterStatsQuery: a router built without RouterConfig.Metrics answers
// "stats" from a registry of its own, carrying the series one routed session
// must have moved.
func TestRouterStatsQuery(t *testing.T) {
	log := recordScenario(t, 1, true)
	_, spec := startBackend(t, ingest.Config{})
	_, raddr := startRouter(t, []string{spec})

	c, err := ingest.Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.StreamTrace("one", log, 512); err != nil {
		t.Fatal(err)
	}
	c.Close()

	q, err := ingest.Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	text, err := q.Stats()
	if err != nil {
		t.Fatalf("stats query: %v", err)
	}
	series := map[string]int64{}
	for _, line := range strings.Split(text, "\n") {
		var name string
		var v int64
		if _, err := fmt.Sscanf(line, "%s %d", &name, &v); err == nil && !strings.HasPrefix(name, "#") {
			series[name] = v
		}
	}
	for name, want := range map[string]int64{
		"router_sessions_routed_total": 1,
		"router_sessions_lost_total":   0,
		"router_backends_alive":        1,
		"router_backend_deaths_total":  0,
	} {
		if got, ok := series[name]; !ok || got != want {
			t.Errorf("stats series %s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	if got := series["router_frames_forwarded_total"]; got < 2 {
		t.Errorf("router_frames_forwarded_total = %d, want the events and end frames at least", got)
	}
	if got := series["router_frame_bytes_forwarded_total"]; got < int64(len(log)) {
		t.Errorf("router_frame_bytes_forwarded_total = %d, want >= the %d trace bytes", got, len(log))
	}
}
