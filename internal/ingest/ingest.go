// Package ingest is the live trace-ingest server: a long-running analysis
// daemon that accepts many concurrent client connections, each carrying one
// length-framed trace stream (tracelog's frame layer), and multiplexes them
// into independent per-session analysis pipelines.
//
// This is the step from one-shot replay to the paper's actual deployment
// shape: the tools monitored a long-running SIP server in production, not a
// single recorded run. A traced process (or a replay client such as
// cmd/traceload) connects, streams its events, and receives the rendered
// report for exactly its stream; the daemon additionally keeps a session
// registry and serves an aggregated cross-session report.
//
// Design notes:
//
//   - One connection is one session is one engine pipeline
//     (engine.Sequential). Reports are therefore byte-identical to an
//     offline replay of the same trace through the same registry — the
//     conformance suite pins this.
//   - Memory is bounded per session by the engine's fixed-size batch (the
//     stream is read only as fast as the tools consume it) and across
//     sessions by Config.MaxSessions: beyond the cap, accepted connections
//     wait before their stream is read, which stalls the client through
//     transport flow control instead of queueing unbounded input.
//   - Session lifecycle: open (accepted, handshaking) → streaming (events
//     flowing) → drained (end frame seen, pipeline closing) → reported
//     (report delivered) — or failed, from any state. Completed sessions
//     stay in the registry for the aggregate report until the retention
//     policy (Config.RetainSessions) folds them into the running aggregate
//     and evicts their per-session state.
//   - Live sessions resolve like offline ones: metadata frames
//     (tracelog.FrameMetadata) carry the client's interned stack/block
//     tables, accumulated into a per-session tracelog.TableResolver that the
//     session pipeline renders reports against.
//   - Incremental reporting: with Config.ReportInterval set, a streaming
//     session periodically quiesces its pipeline (engine Snapshot — a
//     non-perturbing checkpoint) and stores the rendered mid-stream report
//     plus its site manifest; query connections fetch them ("session
//     <name>", "snapshots <name>") while the stream is still flowing. Every
//     snapshot manifest is a prefix-consistent subset of the session's final
//     manifest (report.PrefixConsistent) — the final report is unaffected.
//   - Shutdown stops accepting, then flushes: in-flight sessions are given
//     the context's grace period to drain and report; after that their
//     connections are force-closed, which surfaces to the session as a
//     truncated (failed) stream, never as a silently-dropped report.
//   - Scale-out: the same server with Config.BackendMode set becomes a
//     backend analyzer — after each session it additionally returns a
//     structured tracelog.BackendResult (counters, summaries, the session
//     collector in wire form) and answers census probes. Router (traced
//     -router) shards ordinary client sessions across N such backends by
//     rendezvous hashing and folds their results into a fleet aggregate that
//     is byte-identical to a single-process run, because report.SiteKey is
//     content-derived and report.Merge is commutative over it. See the
//     repo-root doc.go ("Cross-session site identity and the router tier")
//     and README's "The router tier" section.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// Config configures a Server.
type Config struct {
	// Tools builds the per-session tool registry. Every session gets fresh
	// instances (the engine calls each spec's Factory anew), so sessions
	// share no mutable analysis state. Required.
	Tools func() []trace.ToolSpec
	// MaxSessions bounds concurrently-analysed sessions (default 64).
	// Further connections are accepted but wait their turn before any of
	// their stream is read.
	MaxSessions int
	// AdmitTimeout bounds how long an accepted connection may wait for a
	// MaxSessions slot — the server's one admission gate — before the server
	// rejects it with a typed busy error frame (tracelog.ErrBusy) carrying a
	// one-second retry-after hint. 0 keeps the delay-not-drop default: the
	// connection waits until a slot frees or the server shuts down (the wait
	// is always bounded by Shutdown, and by IdleTimeout when set — a parked
	// waiter is an idle connection).
	AdmitTimeout time.Duration
	// AdaptiveSampling lets sessions admitted under overload pressure shed a
	// deterministic per-block fraction of memory-access events before
	// analysis (see the sampler in admission.go). Exact sampled-out counts
	// are carried on the session, stamped into its report header, and summed
	// into the aggregate, so degraded output is honest. At zero pressure the
	// sampler keeps everything and reports are byte-identical to a server
	// with sampling off — the overload conformance test pins this.
	AdaptiveSampling bool
	// DegradationLadder sheds auxiliary tools from sessions admitted under
	// pressure, in the order of their trace.Routing class — single-routed
	// tools (highlevel) first, broadcast tools (the lock-order detector)
	// above that; block-routed tools (lockset, djit, hybrid, memcheck) are
	// never shed. Shed tool names are recorded on the session and stamped
	// into its report header. Off, every session runs the full registry
	// regardless of pressure.
	DegradationLadder bool
	// FoldSiteCap > 0 bounds the distinct warning sites the retention fold
	// retains: after each fold the merged collector keeps only the first cap
	// sites (in cross-session first-seen order) and the aggregate discloses
	// exactly how many sites and occurrences were compacted away. This is
	// what keeps a month-long daemon's aggregate memory bounded. 0 keeps
	// every folded site forever.
	FoldSiteCap int
	// ReportInterval > 0 enables periodic incremental reports: roughly every
	// interval (checked as the session's stream is read, so an idle stream —
	// whose report cannot have changed — takes no snapshot), the session
	// pipeline is quiesced via its Snapshot lifecycle and the rendered
	// mid-stream report is stored on the Session, served to "session" and
	// "snapshots" query connections. Snapshots never perturb the final
	// report.
	ReportInterval time.Duration
	// AdaptiveReportInterval lets overload pressure stretch the snapshot
	// cadence: at pressure >= high a streaming session defers snapshot ticks,
	// taking only every snapshotDeferStride'th (a pipeline quiesce is exactly
	// the work an overloaded daemon should not amplify); the configured
	// cadence is restored the moment pressure drops below high. Deferrals are
	// counted on the session and disclosed by the "snapshots" query, so a
	// sparse snapshot history is attributable, never silent. Off, the cadence
	// is fixed regardless of pressure.
	AdaptiveReportInterval bool
	// BackendMode makes this server a backend analyzer in a router tier: in
	// addition to ordinary hello sessions it accepts assign-opened sessions —
	// router-forwarded client streams, answered with a structured
	// backend-report frame (tracelog.BackendResult) instead of rendered
	// text — and backend-stats census requests. Off (the default), both
	// openers are refused with an error frame: a plain daemon never
	// half-speaks the router↔backend protocol by accident.
	BackendMode bool
	// RetainSessions > 0 bounds how many terminal (reported or failed)
	// sessions the registry keeps individually: beyond the bound, the oldest
	// terminal sessions are folded into a running aggregate collector —
	// their warning sites, summaries and lifecycle counts stay in Aggregate
	// forever — and their per-session state (collector, snapshots, registry
	// entry) is evicted. 0 keeps every session forever, the pre-retention
	// behaviour.
	RetainSessions int
	// IdleTimeout > 0 fails a session whose connection delivers no bytes for
	// the duration — a client that handshakes and then stalls would
	// otherwise hold one of the MaxSessions slots until shutdown. The
	// deadline is rolling: it rearms on every read, so slow-but-moving
	// streams are unaffected. It also covers the handshake itself.
	IdleTimeout time.Duration
	// Metrics, when non-nil, receives the daemon's self-observability
	// series (ingest_* families plus the shared engine_* families of every
	// session pipeline) and enables the "stats" query. Instrumentation never
	// influences analysis: session and aggregate reports are byte-identical
	// with or without a registry attached — the obs conformance test pins
	// this.
	Metrics *obs.Registry
}

// SessionState is a session's lifecycle position.
type SessionState uint8

// Session lifecycle states.
const (
	// StateOpen: connection accepted, handshake pending.
	StateOpen SessionState = iota
	// StateStreaming: events are being decoded into the pipeline.
	StateStreaming
	// StateDrained: end frame received; pipeline closing.
	StateDrained
	// StateReported: analysis complete, report produced and being (or
	// already) delivered to the client; terminal unless delivery fails,
	// which downgrades the session to failed.
	StateReported
	// StateFailed: handshake, stream, pipeline or write failure; terminal.
	StateFailed
)

func (s SessionState) String() string {
	switch s {
	case StateOpen:
		return "open"
	case StateStreaming:
		return "streaming"
	case StateDrained:
		return "drained"
	case StateReported:
		return "reported"
	default:
		return "failed"
	}
}

// Snapshot is one periodic incremental report of a streaming session: the
// pipeline's mid-stream merged report, rendered, together with its site
// manifest (report.Collector.Manifest) — the machine-checkable form clients
// verify against the final report.
type Snapshot struct {
	// Events is the number of stream events analysed when the snapshot was
	// taken.
	Events int64
	// Report is the rendered incremental report, resolved against the
	// metadata tables received so far.
	Report string
	// Manifest is the snapshot's site manifest; it is always a
	// prefix-consistent subset of the session's final manifest.
	Manifest string
}

// Session is one client stream's registry entry.
type Session struct {
	ID   uint64
	Name string
	// Opened is when the session was registered; the "sessions" query
	// renders each entry's age from it.
	Opened time.Time

	met *serverMetrics // lifecycle gauge census; nil when no registry is attached

	mu      sync.Mutex
	state   SessionState
	events  int64
	err     error
	col     *report.Collector // set in StateReported
	sums    map[string]trace.ToolSummary
	snaps   []Snapshot // retained incremental reports, oldest first
	dropped int        // older snapshots discarded by the retention cap
	done    bool       // handler finished: report delivered or failure final

	// Overload bookkeeping: what this session's analysis gave up under
	// pressure (exact counts — degraded reports are honest), and snapshot
	// failures that would otherwise vanish.
	sampledOut   int64    // access events shed by the adaptive sampler
	shed         []string // tools shed by the degradation ladder at admission
	snapErrs     int      // failed incremental snapshot attempts
	snapErr      error    // the most recent of them
	snapDeferred int      // snapshot ticks deferred under pressure (AdaptiveReportInterval)
}

// maxSessionSnapshots bounds one session's retained incremental reports: a
// never-ending stream takes a snapshot every ReportInterval forever, so
// without a cap the session would grow without limit and the "snapshots"
// query response would eventually exceed the frame-payload bound. The oldest
// snapshots are discarded first — the freshest ones are the ones a live
// observer wants, and every retained snapshot individually keeps the
// prefix-consistency guarantee.
const maxSessionSnapshots = 64

// snapshotDeferStride is the pressure-adaptive snapshot cadence
// (Config.AdaptiveReportInterval): at pressure >= high only every stride'th
// tick takes a snapshot, so an overloaded daemon spends a quarter of the
// configured quiesce work while streams still checkpoint. The stride resets
// the moment a tick observes pressure below high.
const snapshotDeferStride = 4

// State returns the current lifecycle state.
func (s *Session) State() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Events returns the number of events the session's stream carried. It is
// set when the stream ends (drained or failed) and, with incremental
// reporting enabled (Config.ReportInterval), additionally refreshed at every
// snapshot — so a long-lived streaming session shows its progress instead of
// 0.
func (s *Session) Events() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events
}

// SampledOut returns the exact number of access events the adaptive sampler
// shed from this session: Events() + SampledOut() is what the stream carried.
func (s *Session) SampledOut() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sampledOut
}

// ShedTools returns the tools the degradation ladder removed from this
// session's registry at admission; nil for a full-coverage session.
func (s *Session) ShedTools() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.shed...)
}

// Degraded reports whether the session's analysis gave anything up under
// overload pressure (sampled events or shed tools).
func (s *Session) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sampledOut > 0 || len(s.shed) > 0
}

// SnapshotErrs returns how many incremental snapshot attempts failed, and
// the most recent failure.
func (s *Session) SnapshotErrs() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapErrs, s.snapErr
}

// noteSnapshotError records one failed incremental snapshot attempt. The
// stream goes on — a failed snapshot loses one checkpoint, not the session —
// but the failure is counted and kept instead of dropped on the floor.
func (s *Session) noteSnapshotError(err error) {
	s.mu.Lock()
	s.snapErrs++
	s.snapErr = err
	s.mu.Unlock()
}

// SnapshotsDeferred returns how many snapshot ticks the pressure-adaptive
// cadence skipped for this session (Config.AdaptiveReportInterval).
func (s *Session) SnapshotsDeferred() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapDeferred
}

// noteSnapshotDeferred records one snapshot tick skipped under pressure.
func (s *Session) noteSnapshotDeferred() {
	s.mu.Lock()
	s.snapDeferred++
	s.mu.Unlock()
}

// degradedHeader renders the honesty annotation prepended to the reports of
// a session that analysed less than its stream carried. Empty for a
// full-coverage session, so undegraded reports are byte-identical to a
// server without overload handling.
func degradedHeader(sampledOut int64, shed []string) string {
	if sampledOut == 0 && len(shed) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("== degraded:")
	if sampledOut > 0 {
		fmt.Fprintf(&b, " sampled-out=%d event(s)", sampledOut)
	}
	if len(shed) > 0 {
		fmt.Fprintf(&b, " tools-shed=%s", strings.Join(shed, ","))
	}
	b.WriteByte('\n')
	return b.String()
}

// Snapshots returns the session's incremental reports so far, oldest first.
func (s *Session) Snapshots() []Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Snapshot(nil), s.snaps...)
}

// addSnapshot records one incremental report, discarding the oldest beyond
// maxSessionSnapshots, and refreshes the live event count.
func (s *Session) addSnapshot(sn Snapshot) {
	s.mu.Lock()
	if len(s.snaps) >= maxSessionSnapshots {
		n := copy(s.snaps, s.snaps[1:])
		s.snaps = s.snaps[:n]
		s.dropped++
	}
	s.snaps = append(s.snaps, sn)
	s.events = sn.Events
	s.mu.Unlock()
}

// LatestReport returns the freshest rendered report the session has: the
// final report once reported — rendered from its collector exactly as its
// client received it — otherwise the newest incremental snapshot, otherwise
// a status line. This is what a "session <name>" query receives.
func (s *Session) LatestReport() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.state == StateReported:
		return degradedHeader(s.sampledOut, s.shed) + s.col.Format()
	case len(s.snaps) > 0:
		return s.snaps[len(s.snaps)-1].Report
	default:
		return fmt.Sprintf("== session %s: state=%s, no incremental report yet\n", s.Name, s.state)
	}
}

// FormatSnapshots renders the session's snapshot manifests — the response to
// a "snapshots <name>" query, and the input clients feed to
// report.PrefixConsistent against the final report's manifest.
func (s *Session) FormatSnapshots() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "== session %s: %d snapshot(s)", s.Name, len(s.snaps))
	if s.dropped > 0 {
		fmt.Fprintf(&b, " (%d older discarded)", s.dropped)
	}
	if s.snapErrs > 0 {
		fmt.Fprintf(&b, " (%d failed, last: %v)", s.snapErrs, s.snapErr)
	}
	if s.snapDeferred > 0 {
		fmt.Fprintf(&b, " (%d tick(s) deferred under pressure)", s.snapDeferred)
	}
	b.WriteByte('\n')
	for i, sn := range s.snaps {
		fmt.Fprintf(&b, "== snapshot %d: events=%d\n%s", s.dropped+i+1, sn.Events, sn.Manifest)
	}
	return b.String()
}

// Err returns the terminal failure of a failed session.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// resultLocked is the session's outcome as a per-session record: what a
// rollup adds, and, with Report set, what a backend returns. Callers hold s.mu.
func (s *Session) resultLocked() *tracelog.BackendResult {
	return &tracelog.BackendResult{
		Name: s.Name, Events: s.events, SampledOut: s.sampledOut,
		Shed: s.shed, Sums: s.sums, Col: s.col,
	}
}

// markDone records that the session's handler has finished: its state can no
// longer change, so the retention policy may fold it.
func (s *Session) markDone() {
	s.mu.Lock()
	s.done = true
	s.mu.Unlock()
}

// foldable reports whether the session has reached a state the retention
// policy may fold: terminal AND with its handler finished — a session marked
// reported whose report is still being written can yet downgrade to failed,
// and folding it early would freeze the wrong lifecycle count.
func (s *Session) foldable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done && (s.state == StateReported || s.state == StateFailed)
}

// transitionLocked advances the lifecycle and moves the state-gauge census
// with it. Callers hold s.mu.
func (s *Session) transitionLocked(st SessionState) {
	if s.met != nil && st != s.state {
		s.met.states[s.state].Add(-1)
		s.met.states[st].Add(1)
	}
	s.state = st
}

// setState advances the lifecycle under the session lock.
func (s *Session) setState(st SessionState) {
	s.mu.Lock()
	s.transitionLocked(st)
	s.mu.Unlock()
}

func (s *Session) fail(err error) {
	s.mu.Lock()
	s.transitionLocked(StateFailed)
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Server is the multiplexed trace-ingest daemon.
type Server struct {
	cfg Config
	met *serverMetrics // nil when Config.Metrics is nil

	loop *connLoop

	mu       sync.Mutex
	sessions map[uint64]*Session
	order    []uint64 // session IDs in open order (deterministic aggregate)
	nextID   uint64
	// folded is the retention rollup of the sessions evicted from the
	// registry. Folding is aggregate-preserving: the rollup of folded plus
	// the remaining registry equals the rollup of the unretained registry.
	folded rollup
	drain  DrainSummary

	sem         chan struct{} // MaxSessions slots
	slotWaiters atomic.Int64  // connections parked waiting for a slot
}

// DrainSummary is the outcome of a Shutdown flush: how many sessions were
// still in flight when the drain began, and how they ended — flushed to a
// clean report within the grace period, or force-failed by the connection
// close after it.
type DrainSummary struct {
	InFlight int // sessions not yet terminal when Shutdown began
	Flushed  int // of those, ended reported
	Forced   int // of those, ended failed (grace expired) or still not terminal
}

// Draining reports whether Shutdown has begun — the state a health endpoint
// distinguishes from live serving.
func (s *Server) Draining() bool { return s.loop.draining.Load() }

// LastDrain returns the drain outcome of the completed Shutdown; the zero
// summary before Shutdown has run.
func (s *Server) LastDrain() DrainSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drain
}

// NewServer creates a server; call Serve with a listener to start it.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Tools == nil {
		return nil, errors.New("ingest: Config.Tools is required")
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 64
	}
	s := &Server{
		cfg:      cfg,
		met:      newServerMetrics(cfg.Metrics),
		sessions: make(map[uint64]*Session),
		sem:      make(chan struct{}, cfg.MaxSessions),
	}
	var observe func(tracelog.FrameKind, int)
	if s.met != nil {
		observe = s.met.observeFrame
	}
	s.loop = newConnLoop(cfg.IdleTimeout, observe, s.serveConn)
	return s, nil
}

// Serve accepts connections on ln until Shutdown (or a listener error) and
// blocks while doing so. Each connection is served on its own goroutine.
func (s *Server) Serve(ln net.Listener) error { return s.loop.serve(ln) }

// Shutdown stops accepting and flushes in-flight sessions: it waits for them
// to drain and report until ctx expires, then force-closes the remaining
// connections (their sessions fail with a truncated stream) and waits for
// the handlers to finish.
func (s *Server) Shutdown(ctx context.Context) error {
	// Stopping the loop also unparks every connection still waiting for a
	// MaxSessions slot: they are rejected through the normal error path
	// instead of outliving the server on the semaphore.
	s.loop.stop()
	// In-flight census before any flushing: these are the sessions the drain
	// summary tracks to their terminal state.
	var inflight []*Session
	for _, sess := range s.Sessions() {
		if st := sess.State(); st != StateReported && st != StateFailed {
			inflight = append(inflight, sess)
		}
	}
	err := s.loop.drain(ctx)
	sum := DrainSummary{InFlight: len(inflight)}
	for _, sess := range inflight {
		if sess.State() == StateReported {
			sum.Flushed++
		} else {
			sum.Forced++
		}
	}
	s.mu.Lock()
	s.drain = sum
	s.mu.Unlock()
	return err
}

// register creates a new session registry entry.
func (s *Server) register(name string) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	sess := &Session{ID: s.nextID, Name: name, Opened: time.Now(), met: s.met, state: StateOpen}
	s.sessions[sess.ID] = sess
	s.order = append(s.order, sess.ID)
	if s.met != nil {
		s.met.sessionsOpened.Inc()
		s.met.states[StateOpen].Add(1)
	}
	return sess
}

// serveConn runs one handshaken connection: a query exchange or a full
// session.
func (s *Server) serveConn(conn net.Conn, fr *tracelog.FrameReader, fw *tracelog.FrameWriter, kind tracelog.FrameKind, meta string) {
	switch kind {
	case tracelog.FrameQuery:
		s.serveQuery(fw, meta)
		return
	case tracelog.FrameBackendStats, tracelog.FrameAssign:
		if !s.cfg.BackendMode {
			fw.Error(fmt.Sprintf("%s: this server is not a backend analyzer (Config.BackendMode)", kind))
			return
		}
		if kind == tracelog.FrameBackendStats {
			s.serveBackendStats(fw)
			return
		}
	}
	// An assign-opened session is router-forwarded: analysed exactly like a
	// hello session, but answered with a structured backend-report frame the
	// router folds and relays.
	assigned := kind == tracelog.FrameAssign

	// A session occupies an analysis slot for its whole pipeline lifetime;
	// waiting here (before any stream is read) is the cross-session
	// backpressure described in the package comment. The wait is bounded
	// (admission.go): past the slot deadline the client is answered with a
	// typed busy frame instead of parking forever.
	run, rej := s.admit(meta)
	if rej != nil {
		s.reject(conn, fw, rej)
		return
	}
	defer func() { <-s.sem }()
	// Whatever way the session ends, give the retention policy a chance to
	// fold and evict the oldest terminal sessions. LIFO defers: the done
	// mark lands first, so this handler's own session is foldable — while a
	// session another handler is still delivering a report for (marked
	// reported before the write, and downgraded to failed if the write
	// fails) stays unfoldable until its state is final.
	defer s.retire()
	defer run.sess.markDone()

	serr := s.stream(run, fr)
	if serr == nil {
		serr = s.finish(run, fw, assigned)
	}
	if serr != nil {
		run.sess.fail(serr.err)
		fw.Error(serr.Error())
	}
}

// sessionRun is one admitted session on its way through the stream and
// finish phases.
type sessionRun struct {
	sess   *Session
	level  int              // pressure level observed at admission
	specs  []trace.ToolSpec // the registry, after the degradation ladder
	shed   []string         // tools the ladder removed
	sam    *sampler         // nil unless Config.AdaptiveSampling
	pipe   *engine.Sequential
	events int64 // events analysed
}

// sampledOut is the exact number of events the sampler has dropped so far.
func (r *sessionRun) sampledOut() int64 {
	if r.sam == nil {
		return 0
	}
	return r.sam.dropped
}

// sessionError is a session's terminal failure: the phase it ended in and
// its cause. Its text is the error frame the client receives; the session
// records the bare cause.
type sessionError struct {
	phase string // "pipeline", "stream", "analysis" or "report"
	err   error
}

func (e *sessionError) Error() string { return e.phase + ": " + e.err.Error() }

// stream is the second phase of a session: it builds the pipeline, arms the
// sampler and the snapshot trigger, and analyses the stream to its end.
func (s *Server) stream(run *sessionRun, fr *tracelog.FrameReader) *sessionError {
	sess := run.sess
	sess.setState(StateStreaming)
	// The sampler filters the pipeline's batches before any tool sees them
	// and counts what it drops. It and the snapshot trigger both run on the
	// decode goroutine, so incremental reports read the dropped-so-far count
	// without synchronisation.
	var keep func(*tracelog.Event) bool
	if s.cfg.AdaptiveSampling {
		run.sam = newSampler(run.level, s.pressureLevel)
		keep = run.sam.keep
	}
	// The frame reader's table resolver starts empty and fills in as the
	// stream's metadata frames arrive; every report this session renders —
	// incremental and final — resolves against it, exactly like an offline
	// replay resolving against the recording VM.
	var em *engine.Metrics
	if s.met != nil {
		em = s.met.engine
	}
	pipe, err := engine.NewSequential(engine.Options{
		Tools:    run.specs,
		Resolver: fr.Tables(),
		Metrics:  em,
		Keep:     keep,
	})
	if err != nil {
		return &sessionError{"pipeline", err}
	}
	run.pipe = pipe

	// Incremental reporting: a ticker arms a flag, and the next stream read
	// on the decode goroutine takes the snapshot — the pipeline's Snapshot
	// contract requires the dispatching goroutine, and between reads no
	// event delivery is in flight. An idle stream takes no snapshot, but an
	// idle stream's report cannot have changed either.
	var src io.Reader = fr
	if s.cfg.ReportInterval > 0 {
		// deferredRun tracks consecutive ticks skipped by the
		// pressure-adaptive cadence; it lives on the decode goroutine (the
		// only caller of the trigger callback), so no synchronisation.
		deferredRun := 0
		trig, stop := newSnapshotTrigger(fr, s.cfg.ReportInterval, func() {
			if s.cfg.AdaptiveReportInterval && deferredRun < snapshotDeferStride-1 &&
				s.pressureLevel() >= pressureHigh {
				deferredRun++
				sess.noteSnapshotDeferred()
				if s.met != nil {
					s.met.snapshotsDeferred.Inc()
				}
				return
			}
			deferredRun = 0
			col, err := pipe.Snapshot()
			if err != nil {
				// A failed snapshot loses one checkpoint, not the session —
				// but it is recorded and counted, not swallowed.
				sess.noteSnapshotError(err)
				if s.met != nil {
					s.met.snapshotErrors.Inc()
				}
				return
			}
			sess.addSnapshot(Snapshot{
				Events:   pipe.Events(),
				Report:   degradedHeader(run.sampledOut(), run.shed) + col.Format(),
				Manifest: col.Manifest(),
			})
			if s.met != nil {
				s.met.snapshotsTaken.Inc()
			}
		})
		defer stop()
		src = trig
	}

	// ReplayLog returns what the stream carried; the sampler's drops are the
	// exact remainder beyond what was analysed.
	sent, err := pipe.ReplayLog(src)
	run.events = sent - run.sampledOut()
	sess.mu.Lock()
	sess.events = run.events
	sess.sampledOut = run.sampledOut()
	degraded := sess.sampledOut > 0 || len(sess.shed) > 0
	sess.mu.Unlock()
	if s.met != nil {
		s.met.eventsTotal.Add(run.events)
		if n := run.sampledOut(); n > 0 {
			s.met.sampledOut.Add(n)
		}
		if degraded {
			s.met.degradedSessions.Inc()
		}
	}
	if err != nil {
		pipe.Close() // release the batch; no report by the mid-stream contract
		if s.met != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				s.met.idleKills.Inc()
			}
		}
		return &sessionError{"stream", err}
	}
	return nil
}

// reportBufs recycles the buffers finish renders reports into, so a
// session's report is rendered straight into a buffer already its size and
// written to the connection from there.
var reportBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledReport bounds what reportBufs retains: a buffer grown past it by
// an outsized report is left to the garbage collector.
const maxPooledReport = 4 << 20

func putReportBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledReport {
		reportBufs.Put(bp)
	}
}

// finish is the last phase of a session: it closes the pipeline, renders
// the report and writes it — as a tracelog.BackendResult frame for an
// assign-opened session, as a report frame otherwise.
func (s *Server) finish(run *sessionRun, fw *tracelog.FrameWriter, assigned bool) *sessionError {
	sess := run.sess
	sess.setState(StateDrained)
	col, err := run.pipe.Close()
	if err != nil {
		return &sessionError{"analysis", err}
	}
	// Mark reported before the response write: the moment the client has
	// its report in hand, a follow-up aggregate query must already account
	// for this session (write-then-mark would race that query). A failed
	// delivery downgrades the session to failed afterwards. A degraded
	// session's report says so up front — exact counts, never silently.
	bp := reportBufs.Get().(*[]byte)
	defer putReportBuf(bp)
	text := append((*bp)[:0], degradedHeader(run.sampledOut(), run.shed)...)
	text = col.AppendFormat(text)
	*bp = text
	sess.mu.Lock()
	sess.transitionLocked(StateReported)
	sess.col = col
	sess.sums = run.pipe.Summaries()
	res := sess.resultLocked()
	sess.mu.Unlock()
	if s.met != nil {
		for tool, n := range col.LocationsByTool() {
			s.met.warnings.With(tool).Add(int64(n))
		}
	}
	if assigned {
		// The router gets the structured result: the rendered text it relays
		// to the client, plus the portable collector and summaries it folds
		// into the fleet aggregate.
		res.Report = string(text)
		err = fw.BackendReport(res.Append(nil))
	} else {
		err = fw.Report(text)
	}
	if err != nil {
		// Best effort: an oversized report is refused before any bytes hit
		// the wire, so the client can still be told why.
		return &sessionError{"report", err}
	}
	return nil
}

// serveBackendStats answers a census request (backend mode only).
func (s *Server) serveBackendStats(fw *tracelog.FrameWriter) {
	c := s.census()
	if err := fw.BackendStats(c.Append(nil)); err != nil {
		fw.Error(fmt.Sprintf("backend-stats: %v", err))
	}
}

// census computes the cheap registry rollup behind a backend-stats response:
// lifecycle counts and event totals only — no collector merge, so a router
// polling every backend costs the fleet nothing measurable.
func (s *Server) census() tracelog.BackendCensus {
	r, folded := s.tally()
	return tracelog.BackendCensus{
		Sessions: r.sessions, Reported: r.reported, Failed: r.failed,
		Active: r.active, Folded: folded, Events: r.events,
	}
}

// tally adds every retained session to a copy of the folded rollup, unmerged.
// The folded state and the registry are read in one s.mu critical section,
// so a session the retention policy folds concurrently is counted exactly
// once.
func (s *Server) tally() (r rollup, folded int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r = s.folded
	for _, id := range s.order {
		sess := s.sessions[id]
		sess.mu.Lock()
		r.add(sess.state, sess.resultLocked())
		sess.mu.Unlock()
	}
	return r, s.folded.sessions
}

// snapshotTrigger interposes on a session's stream reads to take pipeline
// snapshots at a safe point: the ticker goroutine only arms a flag, and the
// decode goroutine — the pipeline's dispatching goroutine, with no event
// delivery in flight while it is reading input — fires the callback before
// its next read.
type snapshotTrigger struct {
	r     io.Reader
	fired atomic.Bool
	snap  func()
}

// newSnapshotTrigger wraps r; the returned stop function ends the ticker
// goroutine and is safe to call more than once.
func newSnapshotTrigger(r io.Reader, interval time.Duration, snap func()) (io.Reader, func()) {
	t := &snapshotTrigger{r: r, snap: snap}
	tk := time.NewTicker(interval)
	stop := make(chan struct{})
	go func() {
		defer tk.Stop()
		for {
			select {
			case <-tk.C:
				t.fired.Store(true)
			case <-stop:
				return
			}
		}
	}()
	var once sync.Once
	return t, func() { once.Do(func() { close(stop) }) }
}

func (t *snapshotTrigger) Read(p []byte) (int, error) {
	if t.fired.CompareAndSwap(true, false) {
		t.snap()
	}
	return t.r.Read(p)
}

// serveQuery answers a query connection.
func (s *Server) serveQuery(fw *tracelog.FrameWriter, q string) {
	switch {
	case q == "aggregate":
		reply(fw, "aggregate", s.Aggregate().Format())
	case q == "sessions":
		reply(fw, "sessions", s.formatSessions())
	case q == "stats":
		if s.cfg.Metrics == nil {
			fw.Error("stats: no metrics registry attached (Config.Metrics)")
			return
		}
		reply(fw, "stats", s.cfg.Metrics.Snapshot())
	case strings.HasPrefix(q, "session "), strings.HasPrefix(q, "snapshots "):
		what, name, _ := strings.Cut(q, " ")
		sess := s.SessionByName(strings.TrimSpace(name))
		if sess == nil {
			fw.Error(fmt.Sprintf("unknown session %q (never opened, or already folded into the aggregate)", strings.TrimSpace(name)))
			return
		}
		if what == "session" {
			reply(fw, what, sess.LatestReport())
		} else {
			reply(fw, what, sess.FormatSnapshots())
		}
	default:
		fw.Error(fmt.Sprintf("unknown query %q (known: aggregate, sessions, stats, session <name>, snapshots <name>)", q))
	}
}

// SessionByName returns the most recently opened retained session with the
// given name, or nil.
func (s *Server) SessionByName(name string) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.order) - 1; i >= 0; i-- {
		if sess := s.sessions[s.order[i]]; sess.Name == name {
			return sess
		}
	}
	return nil
}

// formatSessions renders the registry listing a "sessions" query receives.
// The retained sessions and the folded count are read in one s.mu critical
// section, so a session folded concurrently is listed or counted, never both.
func (s *Server) formatSessions() string {
	s.mu.Lock()
	sessions, folded := s.sessionsLocked(), s.folded.sessions
	s.mu.Unlock()
	return formatSessionsAt(sessions, folded, time.Now())
}

// formatSessionsAt is the clock-injected rendering behind formatSessions:
// one line per retained session with its lifecycle state, progress counters
// and age at the given instant.
func formatSessionsAt(sessions []*Session, folded int, now time.Time) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== sessions: %d retained, %d folded\n", len(sessions), folded)
	for _, sess := range sessions {
		sess.mu.Lock()
		fmt.Fprintf(&b, "id=%d name=%s state=%s events=%d snaps=%d age=%s\n",
			sess.ID, sess.Name, sess.state, sess.events, len(sess.snaps),
			now.Sub(sess.Opened).Round(time.Second))
		sess.mu.Unlock()
	}
	return b.String()
}

// retire enforces Config.RetainSessions: while more terminal sessions than
// the bound are retained, the oldest ones are folded into the running
// aggregate and evicted from the registry. In-flight sessions are never
// touched.
func (s *Server) retire() {
	if s.cfg.RetainSessions <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var terminal []uint64
	for _, id := range s.order {
		if s.sessions[id].foldable() {
			terminal = append(terminal, id)
		}
	}
	excess := len(terminal) - s.cfg.RetainSessions
	if excess <= 0 {
		return
	}
	for _, id := range terminal[:excess] {
		s.fold(s.sessions[id])
		delete(s.sessions, id)
	}
	// The evicted IDs are the ones no longer in the registry map.
	s.order = slices.DeleteFunc(s.order, func(id uint64) bool { return s.sessions[id] == nil })
}

// fold merges one terminal session into the retention rollup. Called with
// s.mu held.
func (s *Server) fold(sess *Session) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if s.met != nil {
		// Eviction removes the session from the census the state gauges
		// cover; the folds counter keeps the running total observable.
		s.met.folds.Inc()
		s.met.states[sess.state].Add(-1)
	}
	s.folded.add(sess.state, sess.resultLocked())
	if sess.state != StateReported {
		return
	}
	// Merge produces a fresh collector every fold; the previous one is never
	// mutated again, so an Aggregate holding it concurrently stays sound.
	// With FoldSiteCap set, the fresh collector is compacted before it is
	// published: the retained sites are a prefix of the merged first-seen
	// order, and the discarded tail is tallied for the aggregate to
	// disclose. Compacting pre-publication keeps a concurrent Aggregate
	// sound — it only ever holds collectors that will never mutate again.
	s.folded.merge()
	if s.cfg.FoldSiteCap > 0 {
		sites, occs := s.folded.col.CompactTail(s.cfg.FoldSiteCap)
		s.folded.compactedSites += sites
		s.folded.compactedOccs += occs
		if s.met != nil && sites > 0 {
			s.met.foldCompactedSites.Add(int64(sites))
		}
	}
}

// Sessions returns the registry entries in open order.
func (s *Server) Sessions() []*Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessionsLocked()
}

// sessionsLocked is Sessions for callers holding s.mu.
func (s *Server) sessionsLocked() []*Session {
	out := make([]*Session, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.sessions[id])
	}
	return out
}

// Aggregate is the cross-session rollup: lifecycle counts, total analysed
// events, per-tool warning-site counts, summed tool summaries, and the
// merged deduplicated report of every reported session. Sessions the
// retention policy has folded stay fully accounted for — only their
// per-session state is gone.
type Aggregate struct {
	Sessions int // all registered sessions, including folded ones
	Reported int
	Failed   int
	Active   int // open/streaming/drained
	Folded   int // sessions no longer individually retained (RetainSessions)
	Events   int64
	// SampledOut sums the exact per-session sampler drops: Events +
	// SampledOut is what the streams carried; Degraded counts the sessions
	// that analysed under overload (sampled events or shed tools).
	SampledOut int64
	Degraded   int
	// CompactedSites/CompactedOccurrences disclose what the bounded
	// retention fold (Config.FoldSiteCap) has discarded from Merged.
	CompactedSites       int
	CompactedOccurrences int
	// ByTool counts distinct warning sites per tool across the merged
	// report.
	ByTool map[string]int
	// Summaries sums the per-tool counter rollups of every reported
	// session (trace.Summarizer tools, e.g. memcheck's errors and leaks).
	Summaries map[string]trace.ToolSummary
	// Merged is the deduplicated cross-session report (report.Merge):
	// identical sites from different sessions fold with summed counts.
	Merged *report.Collector
}

// Aggregate computes the cross-session rollup at this instant. Sessions
// still in flight contribute their lifecycle state only — their event
// counts and warnings arrive when the stream ends (or, with incremental
// reporting on, advance at every snapshot; see Session.Events). Folding
// (RetainSessions) is invisible here: the rollup over folded state plus the
// remaining registry equals the rollup an unretained registry would give.
func (s *Server) Aggregate() *Aggregate {
	r, folded := s.tally()
	r.merge()
	return &Aggregate{
		Sessions:             r.sessions,
		Reported:             r.reported,
		Failed:               r.failed,
		Active:               r.active,
		Folded:               folded,
		Events:               r.events,
		SampledOut:           r.sampledOut,
		Degraded:             r.degraded,
		CompactedSites:       r.compactedSites,
		CompactedOccurrences: r.compactedOccs,
		ByTool:               r.col.LocationsByTool(),
		Summaries:            r.sums,
		Merged:               r.col,
	}
}

// Format renders the aggregate in the report idiom: a header block with the
// session counts, then the rollup body (formatRollup).
func (a *Aggregate) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== ingest aggregate: %d session(s) — %d reported, %d failed, %d active; %d event(s)\n",
		a.Sessions, a.Reported, a.Failed, a.Active, a.Events)
	if a.Folded > 0 {
		fmt.Fprintf(&b, "== retention: %d session(s) folded into the aggregate\n", a.Folded)
	}
	if a.Degraded > 0 {
		fmt.Fprintf(&b, "== degraded: %d session(s) analysed under overload — %d event(s) sampled out\n",
			a.Degraded, a.SampledOut)
	}
	if a.CompactedSites > 0 {
		fmt.Fprintf(&b, "== compaction: %d warning site(s) (%d occurrence(s)) discarded beyond the fold site cap\n",
			a.CompactedSites, a.CompactedOccurrences)
	}
	return formatRollup(&b, a.ByTool, a.Summaries, a.Merged)
}

// Listen opens a listener from a "network:address" spec: "tcp:127.0.0.1:0"
// or "unix:/path/to.sock".
func Listen(spec string) (net.Listener, error) {
	network, addr, err := splitSpec(spec)
	if err != nil {
		return nil, err
	}
	return net.Listen(network, addr)
}

// DialSpec connects to a "network:address" spec (see Listen).
func DialSpec(spec string) (net.Conn, error) {
	network, addr, err := splitSpec(spec)
	if err != nil {
		return nil, err
	}
	return net.Dial(network, addr)
}

func splitSpec(spec string) (network, addr string, err error) {
	network, addr, ok := strings.Cut(spec, ":")
	if !ok || addr == "" {
		return "", "", fmt.Errorf("ingest: bad address %q, want network:address (e.g. tcp:127.0.0.1:7433 or unix:/tmp/traced.sock)", spec)
	}
	switch network {
	case "tcp", "tcp4", "tcp6", "unix":
		return network, addr, nil
	default:
		return "", "", fmt.Errorf("ingest: unsupported network %q", network)
	}
}
