// Package fleet is the router tier: a front process that accepts ordinary
// client sessions and shards them across N backend analyzer processes
// (ingest.Server instances running with ingest.Config.BackendMode), turning
// the single-process daemon into the paper's fleet shape — one crash no
// longer loses every live session, and analysis throughput scales with
// backend count.
//
// The router never analyses anything itself. Per session it picks a backend
// by rendezvous hashing over the live backend set (deterministic for a given
// session name and backend set, and a backend's death only moves that
// backend's sessions), opens the forwarded stream with an assign frame, and
// pumps every client frame to the backend verbatim (tracelog.CopyFrame, one
// flush per frame so the client's pacing — and the backend's backpressure —
// survive the hop). The backend answers with a structured
// tracelog.BackendResult: the rendered report the router relays to the
// client unchanged, plus the portable collector and summaries the router
// folds progressively into the fleet aggregate. Because Merge is commutative
// and associative over the content-derived SiteKeys (report/merge.go), the
// fold is byte-identical regardless of which backend analysed which session
// or in what order they finished — the property the cross-process
// conformance test pins.
//
// Failure honesty: a backend that cannot be dialed or written to is marked
// dead permanently — its in-flight sessions are the only ones lost (counted
// as such, never silently), and future sessions re-shard across the
// survivors. A backend's *refusal* (admission busy, analysis error) is an
// answer, not a death: the typed error is relayed to the client and the
// backend stays in rotation.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// retainResults bounds the recent per-session outcome records the
// "sessions" query renders; the fleet tally is unaffected.
const retainResults = 256

// RouterConfig configures a Router.
type RouterConfig struct {
	// Backends lists the backend analyzer specs ("network:address", see
	// ingest.Listen) the router shards sessions across. Required, fixed for
	// the router's lifetime; a backend that fails is marked dead and its spec
	// is never retried.
	Backends []string
	// IdleTimeout > 0 fails a forwarded session whose client delivers no
	// bytes for the duration (rolling, like the Server's).
	IdleTimeout time.Duration
	// Metrics is the registry the router publishes its router_* series on,
	// which the "stats" query renders; nil means the router builds its own.
	Metrics *obs.Registry
}

// Router is the session-sharding front tier.
type Router struct {
	met *routerMetrics

	backends []*routerBackend
	loop     *serve.Loop

	mu     sync.Mutex
	nextID uint64         // sessions routed so far
	recs   []routedRecord // recent session outcomes, oldest first
	// tally is the fleet rollup of the finished sessions, folded
	// progressively as they complete: a reported session adds its backend
	// result, any other outcome counts as failed. lost and rejected count
	// the failures that have their own disclosure line.
	tally    serve.Rollup
	lost     int // failed because their backend died
	rejected int // refused busy by backend admission
}

// routerBackend is one backend's live accounting.
type routerBackend struct {
	spec     string
	dead     atomic.Bool
	lastErr  atomic.Pointer[error] // the failure that killed it
	assigned atomic.Int64          // sessions ever routed here
	inflight atomic.Int64
	reported atomic.Int64
	lost     atomic.Int64 // sessions this backend's death failed
}

// routedRecord is one finished (or in-flight) session's outcome line.
type routedRecord struct {
	id      uint64
	name    string
	backend string
	outcome string // reported, failed, lost, rejected
	events  int64
}

// routerMetrics is the router's self-observability surface.
type routerMetrics struct {
	reg *obs.Registry // what the "stats" query renders

	sessionsRouted  *obs.Counter
	sessionsLost    *obs.Counter
	backendsAlive   *obs.Gauge
	backendDeaths   *obs.Counter
	framesForwarded *obs.Counter
	bytesForwarded  *obs.Counter
}

// newRouterMetrics registers the router metric families on reg, or on a
// registry of the router's own when reg is nil.
func newRouterMetrics(reg *obs.Registry, backends int) *routerMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &routerMetrics{
		reg:             reg,
		sessionsRouted:  reg.Counter("router_sessions_routed_total", "Client sessions accepted and routed to a backend."),
		sessionsLost:    reg.Counter("router_sessions_lost_total", "Sessions failed because their backend died mid-session."),
		backendsAlive:   reg.Gauge("router_backends_alive", "Backend analyzers currently in rotation."),
		backendDeaths:   reg.Counter("router_backend_deaths_total", "Backends marked dead after a dial or transport failure."),
		framesForwarded: reg.Counter("router_frames_forwarded_total", "Client frames pumped to backends verbatim."),
		bytesForwarded:  reg.Counter("router_frame_bytes_forwarded_total", "Client frame payload bytes pumped to backends."),
	}
	m.backendsAlive.Set(int64(backends))
	return m
}

// NewRouter creates a router over the given backend set.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("fleet: RouterConfig.Backends is required")
	}
	r := &Router{met: newRouterMetrics(cfg.Metrics, len(cfg.Backends))}
	r.loop = serve.NewLoop(cfg.IdleTimeout, nil, r.serveConn)
	for _, spec := range cfg.Backends {
		if _, _, err := serve.SplitSpec(spec); err != nil {
			return nil, err
		}
		r.backends = append(r.backends, &routerBackend{spec: spec})
	}
	return r, nil
}

// Draining reports whether Shutdown has begun.
func (r *Router) Draining() bool { return r.loop.Draining() }

// Serve accepts connections on ln until Shutdown (or a listener error) and
// blocks while doing so.
func (r *Router) Serve(ln net.Listener) error { return r.loop.Serve(ln) }

// Shutdown stops accepting and waits for in-flight forwarded sessions to
// finish until ctx expires, then force-closes the remaining connections
// (their sessions fail on both sides as truncated streams).
func (r *Router) Shutdown(ctx context.Context) error {
	r.loop.Stop()
	return r.loop.Drain(ctx)
}

// serveConn runs one handshaken client connection: a query exchange or a
// forwarded session.
func (r *Router) serveConn(_ net.Conn, fr *tracelog.FrameReader, fw *tracelog.FrameWriter, kind tracelog.FrameKind, meta string) {
	switch kind {
	case tracelog.FrameQuery:
		r.serveQuery(fw, meta)
	case tracelog.FrameHello:
		r.routeSession(fw, fr, meta)
	default:
		fw.Error(fmt.Sprintf("%s: a router accepts hello sessions and queries", kind))
	}
}

// pick chooses the backend for a session name by rendezvous hashing over the
// live set: every (name, backend) pair scores independently, the highest live
// score wins. A given name maps to the same backend for as long as that
// backend lives, and a death re-shards only the dead backend's names — the
// survivors' assignments are untouched. nil when no backend is left.
func (r *Router) pick(name string) *routerBackend {
	var best *routerBackend
	var bestScore uint64
	for _, b := range r.backends {
		if b.dead.Load() {
			continue
		}
		h := fnv.New64a()
		io.WriteString(h, name)
		h.Write([]byte{0})
		io.WriteString(h, b.spec)
		score := h.Sum64()
		if best == nil || score > bestScore || (score == bestScore && b.spec < best.spec) {
			best, bestScore = b, score
		}
	}
	return best
}

// markDead retires a backend permanently after a dial or transport failure.
func (r *Router) markDead(b *routerBackend, err error) {
	if b.dead.CompareAndSwap(false, true) {
		b.lastErr.Store(&err)
		r.met.backendsAlive.Add(-1)
		r.met.backendDeaths.Inc()
	}
}

// alive counts backends still in rotation.
func (r *Router) alive() int {
	n := 0
	for _, b := range r.backends {
		if !b.dead.Load() {
			n++
		}
	}
	return n
}

// routeSession forwards one client session to its backend and relays the
// outcome: the backend's rendered report, its typed refusal, or the router's
// own loss report when the backend dies underneath the session.
func (r *Router) routeSession(fw *tracelog.FrameWriter, fr *tracelog.FrameReader, name string) {
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.mu.Unlock()
	r.met.sessionsRouted.Inc()
	fr.SetObserver(func(_ tracelog.FrameKind, payloadBytes int) {
		r.met.framesForwarded.Inc()
		r.met.bytesForwarded.Add(int64(payloadBytes))
	})

	// Pick-and-dial loop: a backend that cannot even be dialed is dead, and
	// the session re-shards immediately — only sessions already streaming to
	// a backend are lost with it.
	var b *routerBackend
	var bc net.Conn
	for {
		if b = r.pick(name); b == nil {
			r.finish(id, name, "", "failed", nil)
			fw.Error("router: no live backend analyzers")
			return
		}
		c, err := ingest.DialSpec(b.spec)
		if err != nil {
			r.markDead(b, err)
			continue
		}
		bc = c
		break
	}
	defer bc.Close()
	b.assigned.Add(1)
	b.inflight.Add(1)
	defer b.inflight.Add(-1)

	bw := tracelog.NewFrameWriter(bc)
	brd := tracelog.NewFrameReader(bc)
	if err := bw.Assign(name); err != nil {
		r.loseSession(fw, b, id, name, err)
		return
	}

	// The pump: every client frame to the backend verbatim, flushed per frame
	// so the client's pacing and the backend's backpressure both survive the
	// hop. The frame layer bounds every length claim before any copying.
	for {
		kind, err := tracelog.CopyFrame(bw, fr)
		if err == nil {
			err = bw.Flush()
		}
		if err != nil {
			if fr.Err() != nil {
				// The inbound client stream broke (truncation, idle timeout,
				// a malformed frame): the session fails exactly as it would
				// at a plain server, and closing the backend conn surfaces
				// the same truncation there. The backend is not at fault.
				r.finish(id, name, b.spec, "failed", nil)
				fw.Error(fmt.Sprintf("stream: %v", err))
				return
			}
			// The outbound write failed. Either the backend died, or it
			// refused the session and closed its side after answering —
			// a buffered response frame tells the two apart.
			r.settleEarlyClose(fw, bc, brd, b, id, name, err)
			return
		}
		if kind == tracelog.FrameEnd {
			break
		}
	}

	payload, err := brd.BackendResponse()
	if err != nil {
		if errors.Is(err, tracelog.ErrRemote) {
			// The backend answered with a refusal (admission busy) or its own
			// session failure — an answer, not a death.
			r.relayRefusal(fw, id, name, b.spec, err)
			return
		}
		r.loseSession(fw, b, id, name, err)
		return
	}
	res, err := tracelog.DecodeBackendResult(payload)
	if err != nil {
		r.finish(id, name, b.spec, "failed", nil)
		fw.Error(fmt.Sprintf("router: bad backend result: %v", err))
		return
	}
	b.reported.Add(1)
	r.finish(id, name, b.spec, "reported", res)
	fw.Report([]byte(res.Report))
}

// settleEarlyClose disambiguates a mid-pump write failure: a backend that
// refused the session sends its error frame before closing its side (the
// admission reject path answers first, then drains), so a readable response
// frame means refusal; anything else means the backend died.
func (r *Router) settleEarlyClose(fw *tracelog.FrameWriter, bc net.Conn, brd *tracelog.FrameReader, b *routerBackend, id uint64, name string, werr error) {
	bc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := brd.BackendResponse(); err != nil && errors.Is(err, tracelog.ErrRemote) {
		r.relayRefusal(fw, id, name, b.spec, err)
		return
	}
	r.loseSession(fw, b, id, name, werr)
}

// relayRefusal forwards a backend's typed refusal to the client in the exact
// error-frame convention the backend used, so busy semantics (the retry-after
// hint, the ErrBusy identity) survive the relay.
func (r *Router) relayRefusal(fw *tracelog.FrameWriter, id uint64, name, spec string, err error) {
	var be *tracelog.BusyError
	if errors.As(err, &be) {
		r.finish(id, name, spec, "rejected", nil)
		fw.Error(tracelog.BusyMessage(be.Reason, be.RetryAfter))
		return
	}
	r.finish(id, name, spec, "failed", nil)
	fw.Error(strings.TrimPrefix(err.Error(), "tracelog: remote error: "))
}

// loseSession accounts one session failed by its backend's death and marks
// the backend dead; future sessions re-shard across the survivors.
func (r *Router) loseSession(fw *tracelog.FrameWriter, b *routerBackend, id uint64, name string, err error) {
	r.markDead(b, err)
	b.lost.Add(1)
	r.met.sessionsLost.Inc()
	r.finish(id, name, b.spec, "lost", nil)
	fw.Error(fmt.Sprintf("router: backend %s lost mid-session: %v", b.spec, err))
}

// finish records one session's terminal outcome in the fleet tally and the
// bounded recent-record list. A reported session's backend result is merged
// at once: Merge over the content-derived SiteKeys is commutative and
// associative, so the progressive fold — sessions completing on different
// backends in arbitrary order — is byte-identical to a one-shot merge, and to
// the same sessions analysed by a single-process server. res is nil for
// every other outcome.
func (r *Router) finish(id uint64, name, spec, outcome string, res *tracelog.BackendResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if res != nil {
		r.tally.Add(serve.Reported, res)
		r.tally.Merge()
	} else {
		res = &tracelog.BackendResult{}
		r.tally.Add(serve.Failed, res)
	}
	switch outcome {
	case "lost":
		r.lost++
	case "rejected":
		r.rejected++
	}
	r.recs = append(r.recs, routedRecord{
		id: id, name: name, backend: spec, outcome: outcome, events: res.Events,
	})
	if len(r.recs) > retainResults {
		r.recs = append(r.recs[:0], r.recs[len(r.recs)-retainResults:]...)
	}
}

// BackendStatus is one backend's line in the fleet aggregate.
type BackendStatus struct {
	Spec     string
	Dead     bool
	LastErr  error // the failure that killed it; nil while alive
	Assigned int64
	Inflight int64
	Reported int64
	Lost     int64
}

// FleetAggregate is the router's cross-backend rollup: session accounting
// (losses disclosed, never folded into plain failures), the merged
// deduplicated report over every backend's results, and per-backend status.
type FleetAggregate struct {
	Sessions   int
	Reported   int
	Failed     int
	Lost       int // sessions failed because their backend died
	Rejected   int // sessions refused busy by backend admission
	Active     int
	Events     int64
	SampledOut int64
	Degraded   int
	ByTool     map[string]int
	Summaries  map[string]trace.ToolSummary
	Merged     *report.Collector
	Backends   []BackendStatus
}

// FleetAggregate computes the rollup at this instant.
func (r *Router) FleetAggregate() *FleetAggregate {
	r.mu.Lock()
	t, routed, lost, rejected := r.tally, int(r.nextID), r.lost, r.rejected
	r.mu.Unlock()
	t.Merge()
	agg := &FleetAggregate{
		Sessions:   routed,
		Reported:   t.Reported,
		Failed:     t.Failed - lost - rejected,
		Lost:       lost,
		Rejected:   rejected,
		Active:     routed - t.Sessions,
		Events:     t.Events,
		SampledOut: t.SampledOut,
		Degraded:   t.Degraded,
		ByTool:     t.Col.LocationsByTool(),
		Summaries:  t.Sums,
		Merged:     t.Col,
	}
	for _, b := range r.backends {
		st := BackendStatus{
			Spec: b.spec, Dead: b.dead.Load(),
			Assigned: b.assigned.Load(), Inflight: b.inflight.Load(),
			Reported: b.reported.Load(), Lost: b.lost.Load(),
		}
		if p := b.lastErr.Load(); p != nil {
			st.LastErr = *p
		}
		agg.Backends = append(agg.Backends, st)
	}
	return agg
}

// Format renders the fleet aggregate in the report idiom. The header keeps
// the single-process aggregate's "N reported" token so existing accounting
// parsers work unchanged, and losses get their own disclosure line.
func (a *FleetAggregate) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== fleet aggregate: %d session(s) — %d reported, %d failed, %d active; %d event(s)\n",
		a.Sessions, a.Reported, a.Failed+a.Lost, a.Active, a.Events)
	if a.Lost > 0 {
		fmt.Fprintf(&b, "== lost: %d session(s) failed with their backend\n", a.Lost)
	}
	if a.Rejected > 0 {
		fmt.Fprintf(&b, "== rejected: %d session(s) refused busy by backend admission\n", a.Rejected)
	}
	if a.Degraded > 0 {
		fmt.Fprintf(&b, "== degraded: %d session(s) analysed under overload — %d event(s) sampled out\n",
			a.Degraded, a.SampledOut)
	}
	for _, st := range a.Backends {
		state := "alive"
		if st.Dead {
			state = "dead"
		}
		fmt.Fprintf(&b, "== backend %s: state=%s assigned=%d inflight=%d reported=%d lost=%d",
			st.Spec, state, st.Assigned, st.Inflight, st.Reported, st.Lost)
		if st.LastErr != nil {
			fmt.Fprintf(&b, " err=%v", st.LastErr)
		}
		b.WriteByte('\n')
	}
	return serve.FormatRollup(&b, a.ByTool, a.Summaries, a.Merged)
}

// serveQuery answers a router query connection. Per-session state (snapshots,
// individual reports) lives on the backends, so the router serves the fleet
// views and points session queries at the tier that has them.
func (r *Router) serveQuery(fw *tracelog.FrameWriter, q string) {
	switch {
	case q == "aggregate":
		serve.Reply(fw, "aggregate", r.FleetAggregate().Format())
	case q == "backends":
		serve.Reply(fw, "backends", r.formatBackends())
	case q == "sessions":
		serve.Reply(fw, "sessions", r.formatSessions())
	case q == "stats":
		serve.Reply(fw, "stats", r.met.reg.Snapshot())
	case strings.HasPrefix(q, "session "), strings.HasPrefix(q, "snapshots "):
		fw.Error(fmt.Sprintf("%q: per-session state lives on the backend analyzers; query them directly", q))
	default:
		fw.Error(fmt.Sprintf("unknown query %q (known: aggregate, backends, sessions, stats)", q))
	}
}

// formatSessions renders the recent-outcome listing, the last retainResults
// sessions.
func (r *Router) formatSessions() string {
	r.mu.Lock()
	recs := append([]routedRecord(nil), r.recs...)
	total := int(r.nextID)
	active := total - r.tally.Sessions
	r.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "== routed sessions: %d total, %d active, last %d outcome(s)\n", total, active, len(recs))
	for _, rec := range recs {
		fmt.Fprintf(&b, "id=%d name=%s backend=%s outcome=%s events=%d\n",
			rec.id, rec.name, rec.backend, rec.outcome, rec.events)
	}
	return b.String()
}

// formatBackends renders per-backend status, probing each live backend for
// its census over a short-deadline backend-stats exchange.
func (r *Router) formatBackends() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== backends: %d configured, %d alive\n", len(r.backends), r.alive())
	for _, bk := range r.backends {
		if bk.dead.Load() {
			errText := ""
			if p := bk.lastErr.Load(); p != nil {
				errText = fmt.Sprintf(" err=%v", *p)
			}
			fmt.Fprintf(&b, "backend %s: dead assigned=%d reported=%d lost=%d%s\n",
				bk.spec, bk.assigned.Load(), bk.reported.Load(), bk.lost.Load(), errText)
			continue
		}
		census, err := probeBackend(bk.spec)
		if err != nil {
			// A failed probe is reported, not acted on: the probe is a read,
			// and only the session path decides life and death.
			fmt.Fprintf(&b, "backend %s: alive assigned=%d inflight=%d reported=%d (census probe failed: %v)\n",
				bk.spec, bk.assigned.Load(), bk.inflight.Load(), bk.reported.Load(), err)
			continue
		}
		fmt.Fprintf(&b, "backend %s: alive assigned=%d inflight=%d reported=%d census: %d session(s), %d reported, %d failed, %d active, %d folded, %d event(s)\n",
			bk.spec, bk.assigned.Load(), bk.inflight.Load(), bk.reported.Load(),
			census.Sessions, census.Reported, census.Failed, census.Active, census.Folded, census.Events)
	}
	return b.String()
}

// probeBackend runs one backend-stats exchange with a short deadline.
func probeBackend(spec string) (*tracelog.BackendCensus, error) {
	conn, err := ingest.DialSpec(spec)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	bw := tracelog.NewFrameWriter(conn)
	if err := bw.BackendStats(nil); err != nil {
		return nil, err
	}
	payload, err := tracelog.NewFrameReader(conn).BackendStatsResponse()
	if err != nil {
		return nil, err
	}
	return tracelog.DecodeBackendCensus(payload)
}
