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
//   - The daemon is always metered: its ingest_* and engine_* series land on
//     Config.Metrics, or on a registry of the server's own when that is nil,
//     and the "stats" query renders them. There is no unmetered mode; the
//     obs conformance test holds the metered daemon's reports to an
//     unmetered offline replay.
//   - Shutdown stops accepting, then flushes: in-flight sessions are given
//     the context's grace period to drain and report; after that their
//     connections are force-closed, which surfaces to the session as a
//     truncated (failed) stream, never as a silently-dropped report.
//   - Scale-out: the same server with Config.BackendMode set becomes a
//     backend analyzer — after each session it additionally returns a
//     structured tracelog.BackendResult (counters, summaries, the session
//     collector in wire form) and answers census probes. The router tier
//     (internal/fleet, traced -router) shards ordinary client sessions
//     across N such backends by rendezvous hashing and folds their results
//     into a fleet aggregate that is byte-identical to a single-process run,
//     because report.SiteKey is content-derived and report.Merge is
//     commutative over it. See the
//     repo-root doc.go ("Cross-session site identity and the router tier")
//     and README's "The router tier" section.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/serve"
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
	// Metrics is the registry the daemon publishes its self-observability
	// series on (ingest_* families plus the shared engine_* families of
	// every session pipeline), which the "stats" query renders; nil means
	// the server builds its own. Instrumentation never influences analysis:
	// session and aggregate reports are byte-identical to an unmetered
	// offline replay — the obs conformance test pins this.
	Metrics *obs.Registry
}

// Server is the multiplexed trace-ingest daemon.
type Server struct {
	cfg Config
	met *serverMetrics

	loop *serve.Loop

	mu       sync.Mutex
	sessions map[uint64]*Session
	order    []uint64 // session IDs in open order (deterministic aggregate)
	nextID   uint64
	// folded is the retention rollup of the sessions evicted from the
	// registry. Folding is aggregate-preserving: the rollup of folded plus
	// the remaining registry equals the rollup of the unretained registry.
	folded serve.Rollup
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
func (s *Server) Draining() bool { return s.loop.Draining() }

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
	s.loop = serve.NewLoop(cfg.IdleTimeout, s.met.observeFrame, s.serveConn)
	return s, nil
}

// Serve accepts connections on ln until Shutdown (or a listener error) and
// blocks while doing so. Each connection is served on its own goroutine.
func (s *Server) Serve(ln net.Listener) error { return s.loop.Serve(ln) }

// Shutdown stops accepting and flushes in-flight sessions: it waits for them
// to drain and report until ctx expires, then force-closes the remaining
// connections (their sessions fail with a truncated stream) and waits for
// the handlers to finish.
func (s *Server) Shutdown(ctx context.Context) error {
	// Stopping the loop also unparks every connection still waiting for a
	// MaxSessions slot: they are rejected through the normal error path
	// instead of outliving the server on the semaphore.
	s.loop.Stop()
	// In-flight census before any flushing: these are the sessions the drain
	// summary tracks to their terminal state.
	var inflight []*Session
	for _, sess := range s.Sessions() {
		if st := sess.State(); st != StateReported && st != StateFailed {
			inflight = append(inflight, sess)
		}
	}
	err := s.loop.Drain(ctx)
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
	s.met.sessionsOpened.Inc()
	s.met.states[StateOpen].Add(1)
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

// Listen opens a listener from a "network:address" spec: "tcp:127.0.0.1:0"
// or "unix:/path/to.sock". A unix socket file left behind by a daemon that
// died without closing its listener does not block a restart: when the bind
// finds the path taken, a dial that is refused and an Lstat that shows a
// socket prove that nothing listens there, and the file is removed before
// one more attempt. A live listener's socket and a file that is not a
// socket are never touched.
func Listen(spec string) (net.Listener, error) {
	network, addr, err := serve.SplitSpec(spec)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen(network, addr)
	if err == nil || network != "unix" || !errors.Is(err, syscall.EADDRINUSE) || !staleSocket(addr) {
		return ln, err
	}
	if os.Remove(addr) != nil {
		return nil, err
	}
	return net.Listen(network, addr)
}

// staleSocket reports whether path is a unix socket file that refuses
// connections.
func staleSocket(path string) bool {
	conn, err := net.Dial("unix", path)
	if err == nil {
		conn.Close()
		return false
	}
	if !errors.Is(err, syscall.ECONNREFUSED) {
		return false
	}
	fi, err := os.Lstat(path)
	return err == nil && fi.Mode().Type() == fs.ModeSocket
}

// DialSpec connects to a "network:address" spec (see Listen).
func DialSpec(spec string) (net.Conn, error) {
	network, addr, err := serve.SplitSpec(spec)
	if err != nil {
		return nil, err
	}
	return net.Dial(network, addr)
}
