package ingest

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/tracelog"
)

// snapshotDeferStride is the pressure-adaptive snapshot cadence
// (Config.AdaptiveReportInterval): at pressure >= high only every stride'th
// tick takes a snapshot, so an overloaded daemon spends a quarter of the
// configured quiesce work while streams still checkpoint. The stride resets
// the moment a tick observes pressure below high.
const snapshotDeferStride = 4

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
	pipe, err := engine.NewSequential(engine.Options{
		Tools:    run.specs,
		Resolver: fr.Tables(),
		Metrics:  s.met.engine,
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
				s.met.snapshotsDeferred.Inc()
				return
			}
			deferredRun = 0
			col, err := pipe.Snapshot()
			if err != nil {
				// A failed snapshot loses one checkpoint, not the session —
				// but it is recorded and counted, not swallowed.
				sess.noteSnapshotError(err)
				s.met.snapshotErrors.Inc()
				return
			}
			sess.addSnapshot(Snapshot{
				Events:   pipe.Events(),
				Report:   degradedHeader(run.sampledOut(), run.shed) + col.Format(),
				Manifest: col.Manifest(),
			})
			s.met.snapshotsTaken.Inc()
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
	s.met.eventsTotal.Add(run.events)
	if n := run.sampledOut(); n > 0 {
		s.met.sampledOut.Add(n)
	}
	if degraded {
		s.met.degradedSessions.Inc()
	}
	if err != nil {
		pipe.Close() // release the batch; no report by the mid-stream contract
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			s.met.idleKills.Inc()
		}
		return &sessionError{"stream", err}
	}
	return nil
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
