package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
)

// daemon is the system under test as the load generator sees it: an address
// to dial, a process to account CPU and memory to, and a way to stop it
// (safe to call again; later calls return the first outcome).
type daemon struct {
	addr string
	pid  int
	stop func() error
}

// retain is how many terminal sessions the daemon keeps before it folds the
// oldest into its aggregate. Small on purpose: with the daemon's usual
// hundreds, a window of megabyte reports never reaches a steady state — the
// heap grows by megabytes per session and the sessions slow down with it.
const retain = 4

// tracedArgs is the deployment every workload measures: one traced process,
// six tools, sessions analysed inline (-parallel 1 is the default).
func tracedArgs(sock string) []string {
	return []string{
		"-listen", "unix:" + sock, "-tools", "all",
		"-max-sessions", "64", "-retain", strconv.Itoa(retain), "-idle-timeout", "30s",
	}
}

// startTraced starts a fresh traced process listening on a unix socket under
// outDir and waits until it accepts. Its output goes to logPath.
func startTraced(bin, outDir, logPath string, cpus []int) (*daemon, error) {
	sock := filepath.Join(outDir, "traced.sock")
	// A unix socket path is limited to ~108 bytes and the checkout may sit
	// deep; traced shares our working directory, so a relative path works.
	if cwd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(cwd, sock); err == nil && len(rel) < len(sock) {
			sock = rel
		}
	}
	if err := os.Remove(sock); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, tracedArgs(sock)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := cmd.Start
	if len(cpus) > 0 {
		start = func() error { return startPinned(cpus, cmd.Start) }
	}
	if err := start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start traced: %w", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	d := &daemon{addr: "unix:" + sock, pid: cmd.Process.Pid}
	d.stop = sync.OnceValue(func() error {
		defer logf.Close()
		defer os.Remove(sock)
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return <-exited
		}
		select {
		case err := <-exited:
			return err
		case <-time.After(20 * time.Second):
			cmd.Process.Kill()
			<-exited
			return fmt.Errorf("traced did not exit on SIGTERM")
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := ingest.DialSpec(d.addr)
		if err == nil {
			conn.Close()
			return d, nil
		}
		select {
		case werr := <-exited:
			logf.Close()
			return nil, fmt.Errorf("traced exited before listening: %v (see %s)", werr, logPath)
		default:
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			<-exited
			logf.Close()
			return nil, fmt.Errorf("traced not listening on %s after 10s: %v", d.addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startInProcess serves the same configuration from this process, for the
// smoke mode and the tests (no traced binary needed). CPU and memory figures
// then describe the benchmark process and mean nothing.
func startInProcess(dir string) (*daemon, error) {
	srv, err := ingest.NewServer(ingest.Config{
		Tools: tools, MaxSessions: 64, RetainSessions: retain,
		IdleTimeout: 30 * time.Second, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	sock := filepath.Join(dir, "inproc.sock")
	os.Remove(sock)
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return &daemon{
		addr: "unix:" + sock,
		pid:  os.Getpid(),
		stop: sync.OnceValue(func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			err := srv.Shutdown(ctx)
			<-done
			os.Remove(sock)
			return err
		}),
	}, nil
}

// sample is one client session as the caller saw it. Times are offsets from
// the start of the run that produced it.
type sample struct {
	Start, End time.Duration // dial begun, full report received
	Dial       time.Duration // connect
	Stream     time.Duration // hello, metadata, every events frame written
	Wait       time.Duration // end frame sent, report received
	Events     int64
}

// loadRun is what a set of closed-loop clients observed.
type loadRun struct {
	Samples    []sample
	AggQueries []time.Duration
	Attempted  int
	Failed     int
	Failures   []string // first few, for the operator
	Events     int64    // events in verified sessions
	Elapsed    time.Duration
}

func (r *loadRun) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// session runs one closed-loop session: dial, stream, wait for the report,
// verify it byte for byte against the reference.
func session(addr, name string, in *input, t0 time.Time) (sample, error) {
	s := sample{Start: time.Since(t0)}
	c, err := ingest.Dial(addr)
	if err != nil {
		return s, fmt.Errorf("dial: %w", err)
	}
	defer c.Close()
	dialed := time.Since(t0)
	s.Dial = dialed - s.Start
	if err := c.Hello(name); err != nil {
		return s, err
	}
	if err := c.SendMetadata(in.Meta); err != nil {
		return s, err
	}
	for log := in.Log; len(log) > 0; {
		n := min(chunk, len(log))
		if err := c.SendEvents(log[:n]); err != nil {
			return s, err
		}
		log = log[n:]
	}
	streamed := time.Since(t0)
	s.Stream = streamed - dialed
	rep, err := c.Finish()
	s.End = time.Since(t0)
	s.Wait = s.End - streamed
	if err != nil {
		return s, err
	}
	if rep != in.Want {
		return s, fmt.Errorf("report differs from the reference (%d bytes, want %d)", len(rep), len(in.Want))
	}
	s.Events = in.Events
	return s, nil
}

// query runs one query exchange on a fresh connection.
func query(addr, q string) (string, error) {
	c, err := ingest.Dial(addr)
	if err != nil {
		return "", err
	}
	defer c.Close()
	return c.Query(q)
}

// runClients drives the closed loop: each of n clients opens its next
// session only after the previous report arrived, cycling the workload's
// inputs in order, until more(i, elapsed) says stop (i is the client's own
// session count). A session in flight at that point is completed and
// counted.
func runClients(t0 time.Time, addr string, w workload, ins []*input, n int, tag string, more func(i int, elapsed time.Duration) bool) *loadRun {
	runs := make([]*loadRun, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &loadRun{}
			runs[c] = r
			for i := 0; more(i, time.Since(t0)); i++ {
				in := ins[i%len(ins)]
				r.Attempted++
				s, err := session(addr, fmt.Sprintf("%s-%s-c%d-%d", w.Name, tag, c, i), in, t0)
				if err != nil {
					r.fail("client %d session %d (%s): %v", c, i, in.Name, err)
					continue
				}
				r.Samples = append(r.Samples, s)
				r.Events += s.Events
				if w.AggregateEvery > 0 && (i+1)%w.AggregateEvery == 0 {
					q0 := time.Now()
					if _, err := query(addr, "aggregate"); err != nil {
						r.fail("client %d aggregate query after session %d: %v", c, i, err)
						continue
					}
					r.AggQueries = append(r.AggQueries, time.Since(q0))
				}
			}
		}(c)
	}
	wg.Wait()
	total := &loadRun{Elapsed: time.Since(t0)}
	for _, r := range runs {
		total.Samples = append(total.Samples, r.Samples...)
		total.AggQueries = append(total.AggQueries, r.AggQueries...)
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		total.Events += r.Events
		for _, f := range r.Failures {
			if len(total.Failures) < 8 {
				total.Failures = append(total.Failures, f)
			}
		}
	}
	return total
}

// procUsage is a process's cumulative CPU, peak resident set and
// involuntary context switches, read from /proc.
type procUsage struct {
	User, Sys  time.Duration
	PeakRSSMiB float64
	InvolCtx   int64
}

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat counts CPU time in
// these, and every Linux ABI Go runs on fixes it at 100.
const clockTick = 10 * time.Millisecond

func readProcUsage(pid int) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// The command name may hold spaces and parentheses; fields are counted
	// from the last ')'. utime and stime are fields 14 and 15 of the line,
	// 12 and 13 after the name.
	rest := string(stat)
	rest = rest[strings.LastIndexByte(rest, ')')+1:]
	f := strings.Fields(rest)
	if len(f) < 13 {
		return u, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return u, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	u.User, u.Sys = time.Duration(ut)*clockTick, time.Duration(st)*clockTick

	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	if kb, ok := statusField(string(status), "VmHWM:"); ok {
		u.PeakRSSMiB = float64(kb) / 1024
	}
	// Context switches are per thread; the process figure is their sum.
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	for _, path := range tasks {
		if b, err := os.ReadFile(path); err == nil {
			n, _ := statusField(string(b), "nonvoluntary_ctxt_switches:")
			u.InvolCtx += n
		}
	}
	return u, nil
}

func statusField(status, key string) (int64, bool) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, false
			}
			n, err := strconv.ParseInt(f[0], 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// selfCPU is this process's own user+system time: the load generator's cost.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// series parses a "stats" response (Prometheus text) into series → value.
func series(text string) map[string]int64 {
	out := make(map[string]int64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseInt(line[i+1:], 10, 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sumPrefix adds every series of one family, whatever its label.
func sumPrefix(s map[string]int64, family string) int64 {
	var n int64
	for k, v := range s {
		if k == family || strings.HasPrefix(k, family+"{") {
			n += v
		}
	}
	return n
}

var aggregateHeader = regexp.MustCompile(`== ingest aggregate: (\d+) session\(s\) — (\d+) reported, (\d+) failed, (\d+) active; (\d+) event\(s\)`)

// accounting checks the daemon's own books against what the generator sent
// to this process since it started: every event decoded, every session
// reported, none failed or still open. It returns the stats series for the
// per-layer counters.
func accounting(addr string, sessions int, events int64) (map[string]int64, error) {
	text, err := query(addr, "stats")
	if err != nil {
		return nil, fmt.Errorf("stats query: %w", err)
	}
	st := series(text)
	if got := st["engine_events_decoded_total"]; got != events {
		return st, fmt.Errorf("daemon decoded %d events, generator sent %d", got, events)
	}
	agg, err := query(addr, "aggregate")
	if err != nil {
		return st, fmt.Errorf("aggregate query: %w", err)
	}
	m := aggregateHeader.FindStringSubmatch(agg)
	if m == nil {
		return st, fmt.Errorf("aggregate response has no header line")
	}
	var n [5]int64
	for i := range n {
		n[i], _ = strconv.ParseInt(m[i+1], 10, 64)
	}
	if n[0] != int64(sessions) || n[1] != int64(sessions) || n[2] != 0 || n[3] != 0 || n[4] != events {
		return st, fmt.Errorf("aggregate accounts %d session(s), %d reported, %d failed, %d active, %d event(s); generator completed %d session(s), %d event(s)",
			n[0], n[1], n[2], n[3], n[4], sessions, events)
	}
	return st, nil
}
