package ingest

// What the Server and the Router share: the serving loop and the session
// rollup.

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

// handshakeHandler serves one connection past its handshake: the opener's
// kind and its name or query text, with the connection's frame reader and
// writer.
type handshakeHandler func(conn net.Conn, fr *tracelog.FrameReader, fw *tracelog.FrameWriter, kind tracelog.FrameKind, meta string)

// connLoop accepts connections until stopped and serves each on its own
// goroutine; drain waits for them and force-closes the stragglers.
type connLoop struct {
	idle    time.Duration                 // rolling read deadline; 0 disables it
	observe func(tracelog.FrameKind, int) // frame observer, handshake included; nil for none
	handle  handshakeHandler

	draining atomic.Bool // set by stop; health endpoints read it

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	shutdown chan struct{} // closed by stop; unparks slot waiters
	wg       sync.WaitGroup
}

func newConnLoop(idle time.Duration, observe func(tracelog.FrameKind, int), handle handshakeHandler) *connLoop {
	return &connLoop{
		idle:     idle,
		observe:  observe,
		handle:   handle,
		conns:    make(map[net.Conn]struct{}),
		shutdown: make(chan struct{}),
	}
}

// serve accepts connections on ln until stop (or a listener error) and
// blocks while doing so. Each connection is served on its own goroutine.
func (l *connLoop) serve(ln net.Listener) error {
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
			// Registered under the lock that stop takes, so drain's wait
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
func (l *connLoop) serveConn(conn net.Conn) {
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

// stop ends accepting: it marks the loop draining and closed, closes the
// shutdown channel and the listener. Safe to call more than once.
func (l *connLoop) stop() {
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

// drain waits for every connection handler to finish until ctx expires, then
// force-closes the remaining connections — their sessions fail as truncated
// streams — and waits for the handlers to finish.
func (l *connLoop) drain(ctx context.Context) error {
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

// reply answers a query with its rendered text. An oversized response is
// refused before any bytes hit the wire, so the client can still be told why.
func reply(fw *tracelog.FrameWriter, what, text string) {
	if err := fw.Report([]byte(text)); err != nil {
		fw.Error(fmt.Sprintf("%s: %v", what, err))
	}
}

// idleReader applies a rolling read deadline to a session connection: every
// read rearms Config.IdleTimeout, so only a genuinely stalled peer times
// out. The resulting net timeout error fails the session through the normal
// stream-error path, freeing its MaxSessions slot.
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

// rollup is a running account of sessions. Its merged state — col and sums —
// is replaced by merge, never mutated, so a copy of the rollup taken under
// its owner's lock stays sound after the lock is dropped.
type rollup struct {
	sessions int
	reported int
	failed   int
	active   int // open/streaming/drained
	events   int64

	sampledOut int64 // summed exact sampler drops
	degraded   int   // sessions that analysed less than their stream

	col     *report.Collector            // merged reports as of the last merge; nil before it
	sums    map[string]trace.ToolSummary // summed tool summaries as of the last merge
	pending []*tracelog.BackendResult    // reported sessions added since the last merge

	// Compaction tallies (Config.FoldSiteCap): what the bounded retention
	// fold has discarded from col.
	compactedSites int
	compactedOccs  int
}

// add accounts one session: its lifecycle state and its outcome in the
// per-session record shape — events, sampler drops, shed tools, and for a
// reported session the collector and summaries merge picks up.
func (r *rollup) add(st SessionState, res *tracelog.BackendResult) {
	r.sessions++
	r.events += res.Events
	r.sampledOut += res.SampledOut
	if res.SampledOut > 0 || len(res.Shed) > 0 {
		r.degraded++
	}
	switch st {
	case StateReported:
		r.reported++
		r.pending = append(r.pending, res)
	case StateFailed:
		r.failed++
	default:
		r.active++
	}
}

// merge folds the pending sessions into col and sums with one report.Merge,
// however many are pending, and into fresh summary maps. report.Merge is
// associative for inputs merged in session order, so merging after every
// add and merging once at the end give the same report.
func (r *rollup) merge() {
	cols := []*report.Collector{r.col}
	sums := mergeSums(make(map[string]trace.ToolSummary, len(r.sums)), r.sums)
	for _, res := range r.pending {
		cols = append(cols, res.Col)
		sums = mergeSums(sums, res.Sums)
	}
	r.col = report.Merge(nil, nil, cols...)
	r.sums = sums
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

// formatRollup renders the body both aggregates share after their header
// lines: per-tool warning-site counts, the summed tool summaries, then the
// merged warnings.
func formatRollup(b *strings.Builder, byTool map[string]int, sums map[string]trace.ToolSummary, merged *report.Collector) string {
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
