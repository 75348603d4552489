package harness

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/trace"
)

// The ingest benchmark: the live-traffic counterpart of the replay
// benchmarks. One traced workload is recorded once; N concurrent clients
// then stream that trace into a live ingest server, each as its own session
// with its own engine pipeline, and the aggregate events/sec measures how
// the daemon's throughput scales with session multiplexing. On a 1-CPU host
// the numbers measure multiplexing overhead rather than parallel speedup.

// IngestResult is one concurrency level's measurement.
type IngestResult struct {
	Sessions     int     `json:"sessions"`
	Shards       int     `json:"shards"` // always 1; kept so older documents parse
	Events       int64   `json:"events"` // total across sessions
	NsTotal      int64   `json:"ns_total"`
	EventsPerSec float64 `json:"events_per_sec"`
	// AllocsPerEvt/BytesPerEvt are process-wide heap allocation rates over
	// the level (server + clients + frame traffic on loopback) — the
	// end-to-end daemon figure, always recorded since the level boundary
	// already quiesces the process.
	AllocsPerEvt float64 `json:"allocs_per_event,omitempty"`
	BytesPerEvt  float64 `json:"bytes_per_event,omitempty"`
	// Obs is the server's flattened metrics snapshot at the end of the level
	// (obs.Registry.Series): the internal counters — events decoded, batches
	// flushed, slot-wait distribution, frame traffic — behind the throughput
	// headline.
	Obs map[string]int64 `json:"obs,omitempty"`
}

// IngestBenchLog measures live-ingest throughput of one recorded trace at
// each of the given session counts: a fresh server per level, sessionCount
// concurrent clients each streaming the full log and waiting for their
// report. tools builds the per-session registry.
func IngestBenchLog(log []byte, tools func() []trace.ToolSpec, sessionCounts []int) ([]IngestResult, error) {
	var out []IngestResult
	for _, sessions := range sessionCounts {
		res, err := ingestOnce(log, tools, sessions)
		if err != nil {
			return nil, fmt.Errorf("harness: ingest %d sessions: %w", sessions, err)
		}
		out = append(out, res)
	}
	return out, nil
}

func ingestOnce(log []byte, tools func() []trace.ToolSpec, sessions int) (IngestResult, error) {
	reg := obs.NewRegistry()
	srv, err := ingest.NewServer(ingest.Config{Tools: tools, MaxSessions: sessions, Metrics: reg})
	if err != nil {
		return IngestResult{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return IngestResult{}, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	}()
	addr := "tcp:" + ln.Addr().String()

	meter := startAllocMeter()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := ingest.Dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			if _, err := c.StreamTrace(fmt.Sprintf("bench-%d", i), log, 0); err != nil {
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	dur := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return IngestResult{}, err
		}
	}

	var events int64
	for _, sess := range srv.Sessions() {
		events += sess.Events()
	}
	res := IngestResult{
		Sessions:     sessions,
		Shards:       1,
		Events:       events,
		NsTotal:      dur.Nanoseconds(),
		EventsPerSec: float64(events) / dur.Seconds(),
		Obs:          reg.Series(),
	}
	res.AllocsPerEvt, res.BytesPerEvt = meter.perEvent(events)
	return res, nil
}
