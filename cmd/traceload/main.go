// Command traceload is the load-generator client for the trace-ingest
// daemon (cmd/traced): it replays a corpus of recorded scenario traces over
// N concurrent connections, each as one live session, collects every
// returned report and measures aggregate ingest throughput.
//
// The corpus is either a directory of recorded *.trace files (e.g. the
// committed golden corpus under internal/scenario/testdata/golden) or a set
// of freshly generated scenarios (-generate); generated scenarios stream
// their interned stack/block tables as metadata frames, so the server
// renders their reports fully resolved. With -verify, every returned report
// is compared byte-for-byte against an in-process offline replay of the
// same trace (same resolver tables) — the live/offline conformance check,
// run against a real server over a real socket — and every incremental
// snapshot the server took of a session (traced -report-interval) is checked
// to be a prefix-consistent subset of that session's final report. With
// -aggregate, the run finishes by querying the server's cross-session
// aggregate report and asserting that this run's sessions all reported.
//
// By default each session streams closed-loop (as fast as the server drains
// it). -rate switches to open-loop: the run targets a total events/sec
// budget split across sessions, each chunk is scheduled on a fixed timeline,
// and the lateness of every send — how long the schedule slipped because the
// server's backpressure held the socket — is summarised as a queueing-delay
// distribution, making overload behaviour measurable.
//
// -flood is the overload counterpart: run far more sessions than the
// server's -max-sessions against a daemon with bounded admission (traced
// -admit-timeout). A session the server rejects with a typed busy error
// counts as shed load rather than failure (optionally redialed after the
// server's retry-after hint, at most a second, up to -flood-retries
// attempts); the run summarises completed vs rejected sessions and exits
// zero when every session either completed or was cleanly rejected.
//
// Usage:
//
//	traceload -addr unix:/tmp/traced.sock -corpus internal/scenario/testdata/golden -sessions 16 -verify
//	traceload -inproc -generate 7 -sessions 64 -verify -aggregate
//	traceload -inproc -generate 4 -sessions 8 -rate 50000 -verify
//	traceload -addr unix:/tmp/traced.sock -sessions 64 -flood -flood-retries 2
//	traceload -addr tcp:127.0.0.1:7433 -query stats
//	traceload -inproc -generate 4 -sessions 8 -chunk 4096   # events frame chunk in bytes (default 64 KiB, closed loop)
//	traceload -inproc -generate 4 -sched 2 -tools lockset,memcheck -verify   # scheduler seed; the registry, as the server runs it
//
// -query runs one standalone query exchange against a live daemon ("stats"
// fetches the server's metrics snapshot, "aggregate"/"sessions"/"session
// <name>"/"snapshots <name>" as documented on the ingest client), prints the
// response and exits without streaming any load.
//
// -inproc starts a private in-process server instead of dialing one, which
// makes a self-contained smoke test (the CI ingest smoke drives a real
// traced process instead).
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/tracelog"
)

var (
	addr      = flag.String("addr", "tcp:127.0.0.1:7433", "server address (network:address)")
	inproc    = flag.Bool("inproc", false, "start a private in-process server instead of dialing -addr")
	sessions  = flag.Int("sessions", 8, "concurrent sessions to run (the corpus is cycled)")
	corpus    = flag.String("corpus", "", "directory of recorded *.trace files to replay")
	generate  = flag.Int("generate", 4, "without -corpus: number of scenario seeds to generate (buggy variants)")
	schedSeed = flag.Int64("sched", 1, "scheduler seed for generated scenarios")
	chunk     = flag.Int("chunk", 64<<10, "events frame chunk size in bytes (closed loop)")
	rate      = flag.Float64("rate", 0, "open-loop target events/sec across all sessions (0 = closed loop)")
	toolList  = flag.String("tools", "all", "tool registry for -verify and -inproc (must match the server's)")
	verify    = flag.Bool("verify", false, "compare every returned report (and every server-side incremental snapshot) against an offline replay of the same trace")
	aggregate = flag.Bool("aggregate", false, "finish by querying and printing the server's aggregate report")
	interval  = flag.Duration("report-interval", 0, "incremental-report interval for -inproc (0 disables)")
	query     = flag.String("query", "", "run one query against -addr, print the response, and exit (e.g. stats, aggregate, sessions)")
	flood     = flag.Bool("flood", false, "overload mode: a session the server rejects with a typed busy error counts as shed load, not failure (disables -verify comparison; degraded reports differ from offline replays by design)")
	retries   = flag.Int("flood-retries", 0, "redial attempts after a busy rejection, honouring the server's retry-after hint (at most a second)")
)

type traceEntry struct {
	name string
	log  []byte
	md   *tracelog.Metadata // interned stack/block tables (generated corpus only)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "traceload: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	flag.Parse()

	if *query != "" {
		c, err := ingest.Dial(*addr)
		if err != nil {
			fail("query: %v", err)
		}
		text, err := c.Query(*query)
		c.Close()
		if err != nil {
			fail("query: %v", err)
		}
		fmt.Print(text)
		return
	}

	tools, err := (core.Options{}).ToolFactory(*toolList)
	if err != nil {
		fail("%v", err)
	}

	traces, err := loadCorpus(*corpus, *generate, *schedSeed)
	if err != nil {
		fail("%v", err)
	}
	if len(traces) == 0 {
		fail("empty corpus")
	}

	target := *addr
	if *inproc {
		srv, err := ingest.NewServer(ingest.Config{
			Tools: tools, MaxSessions: *sessions,
			ReportInterval: *interval,
		})
		if err != nil {
			fail("%v", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fail("%v", err)
		}
		go srv.Serve(ln)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		target = "tcp:" + ln.Addr().String()
	}

	// Per-trace event counts, decoded once outside the timed window (the
	// streaming loop must time ingest work only). Open-loop pacing also
	// needs every event's byte boundary.
	counts := make(map[string]int64, len(traces))
	offsets := make(map[string][]int64, len(traces))
	for _, tr := range traces {
		n, err := scenario.CountEvents(tr.log)
		if err != nil {
			fail("corrupt trace %s: %v", tr.name, err)
		}
		counts[tr.name] = n
		if *rate > 0 {
			offs, err := eventOffsets(tr.log)
			if err != nil {
				fail("offsets for %s: %v", tr.name, err)
			}
			offsets[tr.name] = offs
		}
	}

	// Offline reference reports and site manifests, computed once per
	// distinct trace with the same resolver tables the server accumulates.
	want := make(map[string]string, len(traces))
	wantManifest := make(map[string]string, len(traces))
	if *verify {
		for _, tr := range traces {
			pipe, err := engine.NewSequential(engine.Options{Tools: tools(), Resolver: scenario.Resolver(tr.md)})
			if err != nil {
				fail("offline pipeline: %v", err)
			}
			if _, err := pipe.ReplayLog(bytes.NewReader(tr.log)); err != nil {
				pipe.Close()
				fail("offline replay %s: %v", tr.name, err)
			}
			col, err := pipe.Close()
			if err != nil {
				fail("offline close %s: %v", tr.name, err)
			}
			want[tr.name] = col.Format()
			wantManifest[tr.name] = col.Manifest()
		}
	}

	perSession := *rate / float64(*sessions)
	if *rate > 0 {
		fmt.Printf("traceload: open loop at %.0f events/sec total (%.0f/session)\n", *rate, perSession)
	}
	fmt.Printf("traceload: %d session(s) over %d trace(s) against %s\n", *sessions, len(traces), target)
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var events int64
	var failures []string
	var delays []time.Duration
	var snapsChecked, snapsSkipped int
	var rejected int
	for i := 0; i < *sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := traces[i%len(traces)]
			if *flood {
				wasRejected, err := streamFlood(target, fmt.Sprintf("load-%d-%s", i, tr.name), tr, *chunk, *retries)
				mu.Lock()
				switch {
				case err != nil:
					failures = append(failures, fmt.Sprintf("session %d (%s): %v", i, tr.name, err))
				case wasRejected:
					rejected++
				default:
					events += counts[tr.name]
				}
				mu.Unlock()
				return
			}
			c, err := ingest.Dial(target)
			if err != nil {
				mu.Lock()
				failures = append(failures, fmt.Sprintf("session %d: dial: %v", i, err))
				mu.Unlock()
				return
			}
			defer c.Close()
			name := fmt.Sprintf("load-%d-%s", i, tr.name)
			var rep string
			var sessDelays []time.Duration
			if *rate > 0 {
				rep, sessDelays, err = streamOpenLoop(c, name, tr, offsets[tr.name], perSession)
			} else {
				rep, err = c.StreamTraceMeta(name, tr.md, tr.log, *chunk)
			}
			if err != nil {
				mu.Lock()
				failures = append(failures, fmt.Sprintf("session %d (%s): %v", i, tr.name, err))
				mu.Unlock()
				return
			}
			mu.Lock()
			events += counts[tr.name]
			delays = append(delays, sessDelays...)
			mu.Unlock()
			if !*verify {
				return
			}
			if rep != want[tr.name] {
				mu.Lock()
				failures = append(failures, fmt.Sprintf("session %d (%s): live report differs from offline replay", i, tr.name))
				mu.Unlock()
			}
			checked, skipped, err := verifySnapshots(target, name, wantManifest[tr.name])
			mu.Lock()
			snapsChecked += checked
			if skipped {
				snapsSkipped++
			}
			if err != nil {
				failures = append(failures, fmt.Sprintf("session %d (%s): %v", i, tr.name, err))
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	dur := time.Since(start)

	sort.Strings(failures)
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "traceload:", f)
	}
	fmt.Printf("traceload: %d/%d session(s) ok, %d event(s) in %v (%.0f events/sec)\n",
		*sessions-len(failures)-rejected, *sessions, events, dur.Round(time.Millisecond), float64(events)/dur.Seconds())
	if *flood {
		fmt.Printf("traceload: flood: %d session(s) rejected busy by admission\n", rejected)
	}
	if *rate > 0 {
		fmt.Println("traceload:", delaySummary(delays))
	}
	if *verify && len(failures) == 0 {
		fmt.Printf("traceload: verify ok — every live report byte-identical to its offline replay; %d incremental snapshot(s) prefix-consistent", snapsChecked)
		if snapsSkipped > 0 {
			fmt.Printf(" (%d session(s) already folded, skipped)", snapsSkipped)
		}
		fmt.Println()
	}

	if *aggregate {
		c, err := ingest.Dial(target)
		if err != nil {
			fail("aggregate: %v", err)
		}
		text, err := c.Aggregate()
		c.Close()
		if err != nil {
			fail("aggregate: %v", err)
		}
		fmt.Print(text)
		// This client knows how many sessions it just completed; the
		// aggregate must account for at least that many reported sessions
		// (a long-running daemon may have served other clients too).
		reported, err := parseReported(text)
		if err != nil {
			fail("aggregate: %v", err)
		}
		if ok := *sessions - len(failures) - rejected; reported < ok {
			fail("aggregate reports %d session(s), but this run alone completed %d", reported, ok)
		}
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}

// streamOpenLoop runs one session at a fixed events/sec target: event chunks
// are scheduled on a strict timeline from session start, and each send's
// lateness against its schedule — the time the server's backpressure (or our
// own scheduling debt) held it up — is recorded as a queueing-delay sample.
func streamOpenLoop(c *ingest.Client, name string, tr traceEntry, offs []int64, perSec float64) (string, []time.Duration, error) {
	if err := c.Hello(name); err != nil {
		return "", nil, err
	}
	if err := c.SendMetadata(tr.md); err != nil {
		return "", nil, err
	}
	nev := len(offs) - 1
	// Chunk the rate into ~5ms ticks of at least one event, then recompute
	// the tick from the rounded chunk so per/tick equals the requested rate
	// exactly — flooring the chunk alone would undershoot the target by up
	// to 50% at rates that are not tick-multiples.
	per := int(perSec*0.005 + 0.5)
	if per < 1 {
		per = 1
	}
	tick := time.Duration(float64(per) / perSec * float64(time.Second))
	var delays []time.Duration
	next := time.Now()
	for a := 0; a < nev; a += per {
		b := a + per
		if b > nev {
			b = nev
		}
		next = next.Add(tick)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		if err := c.SendEvents(tr.log[offs[a]:offs[b]]); err != nil {
			return "", delays, err
		}
		if d := time.Since(next); d > 0 {
			delays = append(delays, d)
		} else {
			delays = append(delays, 0)
		}
	}
	rep, err := c.Finish()
	return rep, delays, err
}

// streamFlood runs one closed-loop session expecting admission pressure: a
// typed busy rejection is shed load, not failure. After each rejection it
// sleeps redialDelay and redials, up to retries extra attempts; a session
// still rejected then reports rejected.
func streamFlood(target, name string, tr traceEntry, chunk, retries int) (rejected bool, err error) {
	for attempt := 0; ; attempt++ {
		c, err := ingest.Dial(target)
		if err != nil {
			return false, fmt.Errorf("dial: %w", err)
		}
		_, err = c.StreamTraceMeta(name, tr.md, tr.log, chunk)
		c.Close()
		if err == nil {
			return false, nil
		}
		if !errors.Is(err, tracelog.ErrBusy) {
			return false, err
		}
		if attempt >= retries {
			return true, nil
		}
		time.Sleep(redialDelay(err))
	}
}

// redialDelay is the pause before redialling a busy-rejected session: the
// server's retry-after hint, bounded to a second, or 50ms without one.
func redialDelay(err error) time.Duration {
	hint, ok := tracelog.RetryAfterHint(err)
	if !ok {
		return 50 * time.Millisecond
	}
	return min(hint, time.Second)
}

// eventOffsets computes the cumulative byte offset after every event of a
// binary trace log, by decoding it and re-encoding each event (the encoding
// round-trips byte-identically, which the final length check enforces).
// offs[0] is 0 and offs[i] is the end of event i-1, so events [a,b) occupy
// log[offs[a]:offs[b]].
func eventOffsets(log []byte) ([]int64, error) {
	dec := tracelog.NewDecoder(bytes.NewReader(log))
	var cw countWriter
	rec := tracelog.NewRecorder(&cw)
	offs := []int64{0}
	var ev tracelog.Event
	for {
		err := dec.Next(&ev)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		ev.Deliver(rec)
		if err := rec.Flush(); err != nil {
			return nil, err
		}
		offs = append(offs, cw.n)
	}
	if cw.n != int64(len(log)) {
		return nil, fmt.Errorf("re-encoded stream is %d bytes, trace is %d — encoding drifted", cw.n, len(log))
	}
	return offs, nil
}

type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// delaySummary renders the queueing-delay distribution of an open-loop run.
func delaySummary(delays []time.Duration) string {
	if len(delays) == 0 {
		return "queueing delay: no samples"
	}
	sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
	var sum time.Duration
	for _, d := range delays {
		sum += d
	}
	q := func(p float64) time.Duration {
		i := int(p * float64(len(delays)-1))
		return delays[i]
	}
	return fmt.Sprintf("queueing delay over %d send(s): mean=%v p50=%v p95=%v p99=%v max=%v",
		len(delays), (sum / time.Duration(len(delays))).Round(time.Microsecond),
		q(0.50).Round(time.Microsecond), q(0.95).Round(time.Microsecond),
		q(0.99).Round(time.Microsecond), delays[len(delays)-1].Round(time.Microsecond))
}

// verifySnapshots fetches the server-side incremental snapshot manifests of
// one completed session and checks each is a prefix-consistent subset of the
// trace's offline final manifest. A session the retention policy has already
// folded away is reported as skipped, not failed.
func verifySnapshots(target, session, finalManifest string) (checked int, skipped bool, err error) {
	c, err := ingest.Dial(target)
	if err != nil {
		return 0, false, fmt.Errorf("snapshots dial: %w", err)
	}
	defer c.Close()
	text, err := c.Snapshots(session)
	if err != nil {
		// Folded away by retention, or held on a backend analyzer behind a
		// router that redirects per-session queries: the report byte-identity
		// check already passed, so the snapshot check is skipped, not failed.
		if errors.Is(err, tracelog.ErrRemote) &&
			(strings.Contains(err.Error(), "unknown session") ||
				strings.Contains(err.Error(), "backend analyzers")) {
			return 0, true, nil
		}
		return 0, false, fmt.Errorf("snapshots query: %w", err)
	}
	for i, manifest := range parseSnapshotBlocks(text) {
		if err := report.PrefixConsistent(manifest, finalManifest); err != nil {
			return checked, false, fmt.Errorf("incremental snapshot %d not a prefix of the final report: %w", i+1, err)
		}
		checked++
	}
	return checked, false, nil
}

// parseSnapshotBlocks splits a "snapshots <name>" response into one manifest
// string per snapshot ("== snapshot" headers delimit blocks; other "=="
// lines are chrome).
func parseSnapshotBlocks(text string) []string {
	var blocks []string
	cur := -1
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "== snapshot"):
			blocks = append(blocks, "")
			cur = len(blocks) - 1
		case strings.HasPrefix(line, "=="), line == "":
		case cur >= 0:
			blocks[cur] += line + "\n"
		}
	}
	return blocks
}

// parseReported extracts the reported-session count from the aggregate
// header line ("== ingest aggregate: N session(s) — R reported, ...").
func parseReported(text string) (int, error) {
	m := regexp.MustCompile(`(\d+) reported`).FindStringSubmatch(text)
	if m == nil {
		return 0, fmt.Errorf("no reported count in aggregate header")
	}
	return strconv.Atoi(m[1])
}

// loadCorpus reads *.trace files from dir, or generates scenario traces
// (capturing each recording VM's stack/block tables as stream metadata).
func loadCorpus(dir string, generate int, schedSeed int64) ([]traceEntry, error) {
	if dir != "" {
		paths, err := filepath.Glob(filepath.Join(dir, "*.trace"))
		if err != nil {
			return nil, err
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("no *.trace files in %s", dir)
		}
		sort.Strings(paths)
		var out []traceEntry
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			out = append(out, traceEntry{name: filepath.Base(p), log: data})
		}
		return out, nil
	}
	var out []traceEntry
	for seed := int64(1); seed <= int64(generate); seed++ {
		s := scenario.Generate(scenario.GenConfig{Seed: seed})
		v, log, err := scenario.Record(s, true, schedSeed)
		if err != nil {
			return nil, err
		}
		out = append(out, traceEntry{name: s.Name(), log: log, md: scenario.CaptureMetadata(v)})
	}
	return out, nil
}
