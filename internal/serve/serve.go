// Package serve is what the trace-ingest daemon (internal/ingest) and the
// router tier (internal/fleet) share: the accept loop with its connection
// prologue and drain, the query reply, the session rollup and its rendering,
// and the "network:address" spec both listen and dial with.
package serve

import (
	"context"
	"fmt"
	"io"
	"maps"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// Handler serves one connection past its handshake: the opener's kind and
// its name or query text, with the connection's frame reader and writer.
type Handler func(conn net.Conn, fr *tracelog.FrameReader, fw *tracelog.FrameWriter, kind tracelog.FrameKind, meta string)

// Loop accepts connections until stopped and serves each on its own
// goroutine; Drain waits for them and force-closes the stragglers.
type Loop struct {
	idle    time.Duration                 // rolling read deadline; 0 disables it
	observe func(tracelog.FrameKind, int) // frame observer, handshake included; nil for none
	handle  Handler

	draining atomic.Bool // set by Stop; health endpoints read it

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	shutdown chan struct{} // closed by Stop; unparks slot waiters
	wg       sync.WaitGroup
}

// NewLoop returns a loop that serves each handshaken connection with handle.
// idle > 0 is a rolling read deadline on every connection; observe, when
// non-nil, sees every frame, the handshake included.
func NewLoop(idle time.Duration, observe func(tracelog.FrameKind, int), handle Handler) *Loop {
	return &Loop{
		idle:     idle,
		observe:  observe,
		handle:   handle,
		conns:    make(map[net.Conn]struct{}),
		shutdown: make(chan struct{}),
	}
}

// Serve accepts connections on ln until Stop (or a listener error) and
// blocks while doing so. Each connection is served on its own goroutine.
func (l *Loop) Serve(ln net.Listener) error {
	l.mu.Lock()
	l.ln = ln
	if l.closed {
		ln.Close() // Accept fails at once, and the loop returns nil
	}
	l.mu.Unlock()
	for {
		conn, err := ln.Accept()
		l.mu.Lock()
		closed := l.closed
		if err == nil && !closed {
			// Registered under the lock that Stop takes, so Drain's wait
			// covers every connection accepted before the loop closed.
			l.conns[conn] = struct{}{}
			l.wg.Add(1)
		}
		l.mu.Unlock()
		if closed {
			if err == nil {
				conn.Close()
			}
			return nil
		}
		if err != nil {
			return err
		}
		go func() {
			l.serveConn(conn)
			l.mu.Lock()
			delete(l.conns, conn)
			l.mu.Unlock()
			conn.Close()
			l.wg.Done()
		}()
	}
}

// serveConn runs the prologue of every connection — the idle deadline
// underneath the frame layer, so it covers the handshake and every stream
// read alike; the frame reader and writer; the handshake — and hands the
// opened connection to the owner's handler.
func (l *Loop) serveConn(conn net.Conn) {
	var rd io.Reader = conn
	if l.idle > 0 {
		rd = idleReader{conn: conn, timeout: l.idle}
	}
	fr := tracelog.NewFrameReader(rd)
	if l.observe != nil {
		fr.SetObserver(l.observe)
	}
	fw := tracelog.NewFrameWriter(conn)
	kind, meta, err := fr.Handshake()
	if err != nil {
		fw.Error(fmt.Sprintf("bad handshake: %v", err))
		return
	}
	l.handle(conn, fr, fw, kind, meta)
}

// Stop ends accepting: it marks the loop draining and closed, closes the
// Done channel and the listener. Safe to call more than once.
func (l *Loop) Stop() {
	l.draining.Store(true)
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		close(l.shutdown)
	}
	ln := l.ln
	l.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
}

// Draining reports whether Stop has been called.
func (l *Loop) Draining() bool { return l.draining.Load() }

// Done is closed by Stop.
func (l *Loop) Done() <-chan struct{} { return l.shutdown }

// Drain waits for every connection handler to finish until ctx expires, then
// force-closes the remaining connections — their sessions fail as truncated
// streams — and waits for the handlers to finish.
func (l *Loop) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		l.mu.Lock()
		for conn := range l.conns {
			conn.Close()
		}
		l.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Reply answers a query with its rendered text. An oversized response is
// refused before any bytes hit the wire, so the client can still be told why.
func Reply(fw *tracelog.FrameWriter, what, text string) {
	if err := fw.Report([]byte(text)); err != nil {
		fw.Error(fmt.Sprintf("%s: %v", what, err))
	}
}

// idleReader applies a rolling read deadline to a session connection: every
// read rearms the loop's idle timeout, so only a genuinely stalled peer times
// out. The resulting net timeout error fails the session through the normal
// stream-error path, freeing its analysis slot.
type idleReader struct {
	conn    net.Conn
	timeout time.Duration
}

func (r idleReader) Read(p []byte) (int, error) {
	if err := r.conn.SetReadDeadline(time.Now().Add(r.timeout)); err != nil {
		return 0, err
	}
	return r.conn.Read(p)
}

// Outcome is what a Rollup counts a session as: Active until it ends, then
// Reported or Failed.
type Outcome uint8

const (
	Active Outcome = iota
	Reported
	Failed
)

// Rollup is a running account of sessions. Its merged state — Col and Sums —
// is replaced by Merge, never mutated, so a copy of the rollup taken under
// its owner's lock stays sound after the lock is dropped.
type Rollup struct {
	Sessions int
	Reported int
	Failed   int
	Active   int
	Events   int64

	SampledOut int64 // summed exact sampler drops
	Degraded   int   // sessions that analysed less than their stream

	Col     *report.Collector            // merged reports as of the last Merge; nil before it
	Sums    map[string]trace.ToolSummary // summed tool summaries as of the last Merge
	pending []*tracelog.BackendResult    // reported sessions added since the last Merge

	// Compaction tallies: what a bounded fold has discarded from Col.
	CompactedSites int
	CompactedOccs  int
}

// Add accounts one session: its outcome and its result in the per-session
// record shape — events, sampler drops, shed tools, and for a reported
// session the collector and summaries Merge picks up.
func (r *Rollup) Add(o Outcome, res *tracelog.BackendResult) {
	r.Sessions++
	r.Events += res.Events
	r.SampledOut += res.SampledOut
	if res.SampledOut > 0 || len(res.Shed) > 0 {
		r.Degraded++
	}
	switch o {
	case Reported:
		r.Reported++
		r.pending = append(r.pending, res)
	case Failed:
		r.Failed++
	default:
		r.Active++
	}
}

// Merge folds the pending sessions into Col and Sums with one report.Merge,
// however many are pending, and into fresh summary maps. report.Merge is
// associative for inputs merged in session order, so merging after every
// Add and merging once at the end give the same report.
func (r *Rollup) Merge() {
	cols := []*report.Collector{r.Col}
	sums := mergeSums(make(map[string]trace.ToolSummary, len(r.Sums)), r.Sums)
	for _, res := range r.pending {
		cols = append(cols, res.Col)
		sums = mergeSums(sums, res.Sums)
	}
	r.Col = report.Merge(nil, nil, cols...)
	r.Sums = sums
	r.pending = nil
}

// mergeSums adds every tool summary of src into dst, allocating per-tool maps
// on first use, and returns dst.
func mergeSums(dst, src map[string]trace.ToolSummary) map[string]trace.ToolSummary {
	for name, sum := range src {
		t := dst[name]
		if t == nil {
			t = make(trace.ToolSummary)
			dst[name] = t
		}
		t.Merge(sum)
	}
	return dst
}

// FormatRollup renders the body both aggregates share after their header
// lines: per-tool warning-site counts, the summed tool summaries, then the
// merged warnings.
func FormatRollup(b *strings.Builder, byTool map[string]int, sums map[string]trace.ToolSummary, merged *report.Collector) string {
	if len(byTool) > 0 {
		b.WriteString("== tool locations:")
		for _, tool := range slices.Sorted(maps.Keys(byTool)) {
			fmt.Fprintf(b, " %s=%d", tool, byTool[tool])
		}
		b.WriteByte('\n')
	}
	for _, name := range slices.Sorted(maps.Keys(sums)) {
		counts := sums[name]
		fmt.Fprintf(b, "== %s summary:", name)
		for _, k := range slices.Sorted(maps.Keys(counts)) {
			fmt.Fprintf(b, " %s=%d", k, counts[k])
		}
		b.WriteByte('\n')
	}
	b.WriteString(merged.Format())
	return b.String()
}

// SplitSpec parses a "network:address" spec — "tcp:127.0.0.1:7433" or
// "unix:/path/to.sock" — into its network and address.
func SplitSpec(spec string) (network, addr string, err error) {
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
