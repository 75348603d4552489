// Command traced is the live trace-ingest daemon: the long-running analysis
// server of internal/ingest. It listens on a unix socket or TCP address,
// accepts any number of concurrent client connections each streaming one
// length-framed trace (see the tracelog frame layer), analyses every session
// through its own engine pipeline under the registered tools, and answers
// each client with the rendered report for exactly its stream.
//
// The daemon shape mirrors the paper's deployment: the tools watched a
// long-running SIP server under live traffic, not a one-shot replay. A
// client is cmd/traceload (a replay load generator), or anything speaking
// the frame protocol.
//
// The daemon is built for never-ending streams: -report-interval enables
// periodic incremental per-session reports (engine snapshots, served to
// "session <name>" / "snapshots <name>" query connections while the stream
// is still flowing), -retain bounds the registry by folding old terminal
// sessions into the running aggregate, and -idle-timeout fails sessions
// whose clients stall so they stop holding analysis slots. Sessions that
// stream metadata frames get their reports fully stack-resolved.
//
// Under overload the daemon degrades instead of stalling: -admit-timeout
// bounds the wait for one of the -max-sessions analysis slots (a client that
// outwaits it receives a typed busy error frame with a retry-after hint
// instead of parking on the session cap), -sampling and -ladder adaptively
// trade analysis coverage for survival as pressure rises — with the exact
// shed counts stamped into every degraded report — -adaptive-snapshots
// defers incremental snapshots under pressure, and -fold-cap bounds the
// memory of the long-run retention fold.
//
// The daemon observes itself through an internal/obs metrics registry,
// always on (instrumentation is allocation-free and never perturbs
// analysis). The series are served three ways: a "stats" query connection
// (traceload -query stats), an optional -http endpoint exposing GET /metrics
// (Prometheus text format), GET /healthz (503 while draining) and
// net/http/pprof under /debug/pprof/, and an optional -stats-interval
// one-line stderr dump for log scraping.
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: it stops accepting,
// flushes in-flight sessions within the grace period, then prints a drain
// summary (sessions flushed vs force-failed) and a final metrics snapshot to
// stderr and the cross-session aggregate report to stdout. The same
// aggregate is available at any time to an "aggregate" query connection
// (traceload -aggregate).
//
// Usage:
//
//	traced -listen unix:/tmp/traced.sock
//	traced -listen tcp:127.0.0.1:7433 -tools lockset,memcheck
//	traced -listen tcp:127.0.0.1:7433 -report-interval 500ms -retain 128 -idle-timeout 30s
//	traced -listen tcp:127.0.0.1:7433 -http 127.0.0.1:9090 -stats-interval 10s
//	traced -listen unix:/tmp/traced.sock -max-sessions 4 -admit-timeout 500ms -sampling -ladder
//	traced -listen unix:/tmp/traced.sock -grace 5s    # shutdown drain bound (default 30s)
//
// A unix socket file left behind by a daemon that was killed does not block
// a restart on the same path: a socket that refuses connections is removed
// and listened on again. A socket another daemon still serves, and a file
// that is not a socket, make -listen fail as before.
//
// # Multi-process tier
//
// The daemon also runs as either half of the router → N backends tier
// (internal/fleet). A backend is a normal daemon started with
// -backend: it additionally accepts assign-opened sessions from a router
// (answering with a structured backend-report) and backend-stats census
// probes. A router is started with -router -backends spec,spec,...: it
// analyses nothing itself, shards every client session across the live
// backends by rendezvous hashing, forwards frames verbatim, and serves the
// fleet aggregate — the fold over every backend's results, byte-identical to
// a single process analysing the same sessions. One backend dying fails only
// its in-flight sessions (counted as lost in the aggregate, never silently);
// future sessions re-shard across the survivors.
//
//	traced -backend -listen unix:/tmp/be1.sock &
//	traced -backend -listen unix:/tmp/be2.sock &
//	traced -router -backends unix:/tmp/be1.sock,unix:/tmp/be2.sock -listen tcp:127.0.0.1:7433
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/obs"
)

var (
	listen         = flag.String("listen", "tcp:127.0.0.1:7433", "listen address (network:address; unix:/path or tcp:host:port)")
	toolList       = flag.String("tools", "all", "per-session tool registry (comma-separated, 'all' for every tool)")
	maxSessions    = flag.Int("max-sessions", 64, "concurrently analysed session cap")
	grace          = flag.Duration("grace", 30*time.Second, "shutdown grace period for in-flight sessions")
	reportInterval = flag.Duration("report-interval", 0, "periodic incremental session reports (0 disables; served to 'session'/'snapshots' queries)")
	retain         = flag.Int("retain", 0, "terminal sessions retained individually before being folded into the aggregate (0 keeps all)")
	idleTimeout    = flag.Duration("idle-timeout", 0, "fail a session whose connection goes idle for this long (0 disables)")
	httpAddr       = flag.String("http", "", "serve /metrics, /healthz and /debug/pprof on this host:port (empty disables)")
	statsInterval  = flag.Duration("stats-interval", 0, "print a one-line metrics dump to stderr this often (0 disables)")
	admitTimeout   = flag.Duration("admit-timeout", 0, "reject a session with a typed busy error if no analysis slot frees within this long (0 waits until shutdown)")
	sampling       = flag.Bool("sampling", false, "adaptively sample access events from sessions admitted under overload pressure (exact shed counts stamped into reports)")
	ladder         = flag.Bool("ladder", false, "shed auxiliary tools (highlevel, then deadlock) from sessions admitted under overload pressure")
	foldCap        = flag.Int("fold-cap", 0, "bound the distinct warning sites the retention fold keeps; the aggregate discloses what was compacted (0 keeps all)")
	adaptiveSnaps  = flag.Bool("adaptive-snapshots", false, "defer -report-interval snapshot ticks while overload pressure is high (deferral counts disclosed in snapshot listings)")
	backendMode    = flag.Bool("backend", false, "run as a backend analyzer: additionally accept router-assigned sessions and census probes")
	routerMode     = flag.Bool("router", false, "run as a session router over -backends instead of analysing locally")
	backendSpecs   = flag.String("backends", "", "comma-separated backend specs for -router (network:address each)")
)

func main() {
	flag.Parse()
	reg := obs.NewRegistry()
	if *routerMode {
		runRouter(reg)
		return
	}
	if *backendSpecs != "" {
		fmt.Fprintln(os.Stderr, "traced: -backends requires -router")
		os.Exit(2)
	}

	tools, err := (core.Options{}).ToolFactory(*toolList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "traced:", err)
		os.Exit(2)
	}
	srv, err := ingest.NewServer(ingest.Config{
		Tools:          tools,
		MaxSessions:    *maxSessions,
		ReportInterval: *reportInterval,
		RetainSessions: *retain,
		IdleTimeout:    *idleTimeout,
		Metrics:        reg,

		AdmitTimeout:           *admitTimeout,
		AdaptiveSampling:       *sampling,
		DegradationLadder:      *ladder,
		FoldSiteCap:            *foldCap,
		AdaptiveReportInterval: *adaptiveSnaps,
		BackendMode:            *backendMode,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "traced:", err)
		os.Exit(2)
	}
	role := ""
	if *backendMode {
		role = ", backend mode"
	}
	run(lifecycle{
		d:        srv,
		reg:      reg,
		banner:   fmt.Sprintf("listening on %s (tools %s, %d session slot(s)%s)", *listen, *toolList, *maxSessions, role),
		sessions: "in-flight",
		drained: func() {
			drain := srv.LastDrain()
			fmt.Fprintf(os.Stderr, "traced: drain: %d in-flight session(s) — %d flushed, %d force-failed\n",
				drain.InFlight, drain.Flushed, drain.Forced)
		},
		aggregate: func() string { return srv.Aggregate().Format() },
	})
}

// runRouter runs the session-sharding front tier: no local analysis, every
// client session forwarded to one of the -backends processes, the fleet
// aggregate printed on shutdown exactly like the single-process daemon prints
// its own.
func runRouter(reg *obs.Registry) {
	var backends []string
	for _, spec := range strings.Split(*backendSpecs, ",") {
		if spec = strings.TrimSpace(spec); spec != "" {
			backends = append(backends, spec)
		}
	}
	rt, err := fleet.NewRouter(fleet.RouterConfig{
		Backends:    backends,
		IdleTimeout: *idleTimeout,
		Metrics:     reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "traced:", err)
		os.Exit(2)
	}
	run(lifecycle{
		d:         rt,
		reg:       reg,
		banner:    fmt.Sprintf("routing on %s across %d backend(s): %s", *listen, len(backends), strings.Join(backends, ", ")),
		sessions:  "forwarded",
		aggregate: func() string { return rt.FleetAggregate().Format() },
	})
}

// lifecycle is what the server and the router modes differ in; run does
// everything else the same way for both.
type lifecycle struct {
	d interface {
		Serve(net.Listener) error
		Shutdown(context.Context) error
		Draining() bool
	}
	reg       *obs.Registry
	banner    string // printed once listening, after "traced: "
	sessions  string // what a graceful shutdown drains: "in-flight" or "forwarded"
	drained   func() // prints a drain summary after shutdown; nil for none
	aggregate func() string
}

// run is the daemon's one lifecycle: listen on -listen, start the -http
// endpoint and the -stats-interval dump, serve until SIGINT/SIGTERM (or a
// listener error), drain within -grace, print the final stats to stderr and
// the aggregate to stdout.
func run(lc lifecycle) {
	ln, err := ingest.Listen(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "traced:", err)
		os.Exit(1)
	}
	fmt.Printf("traced: %s\n", lc.banner)

	if *httpAddr != "" {
		hsrv, err := serveHTTP(*httpAddr, lc.reg, lc.d.Draining)
		if err != nil {
			fmt.Fprintln(os.Stderr, "traced:", err)
			os.Exit(1)
		}
		defer hsrv.Close()
		fmt.Printf("traced: metrics on http://%s/metrics (healthz, pprof alongside)\n", *httpAddr)
	}
	if *statsInterval > 0 {
		tick := time.NewTicker(*statsInterval)
		defer tick.Stop()
		go func() {
			for range tick.C {
				fmt.Fprintf(os.Stderr, "traced: stats %s\n", lc.reg.OneLine())
			}
		}()
	}

	done := make(chan error, 1)
	go func() { done <- lc.d.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("traced: %v — draining %s sessions (grace %v)\n", s, lc.sessions, *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := lc.d.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "traced: forced shutdown:", err)
		}
		<-done
		if lc.drained != nil {
			lc.drained()
		}
		fmt.Fprintf(os.Stderr, "traced: final stats\n%s", lc.reg.Snapshot())
	case err := <-done:
		if err != nil {
			fmt.Fprintln(os.Stderr, "traced: serve:", err)
			os.Exit(1)
		}
	}
	fmt.Print(lc.aggregate())
}

// serveHTTP starts the observability endpoint: Prometheus metrics, a
// drain-aware health check, and the stdlib pprof profiles. It is a private
// mux (not http.DefaultServeMux) so nothing else can leak handlers onto the
// daemon's diagnostic port.
func serveHTTP(addr string, reg *obs.Registry, draining func() bool) (*http.Server, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	hln, err := ingest.Listen("tcp:" + addr)
	if err != nil {
		return nil, fmt.Errorf("http: %w", err)
	}
	hsrv := &http.Server{Handler: mux}
	go hsrv.Serve(hln)
	return hsrv, nil
}
