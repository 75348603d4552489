package ingest

// Overload survival: bounded admission, the pressure signal, the degradation
// ladder and the adaptive event sampler. The paper's premise is always-on
// analysis of production servers; what that demands of the daemon is that it
// trades analysis coverage for survival under pressure — and says exactly
// what it traded — instead of parking clients forever on a full semaphore.
//
// The moving parts, from the outside in:
//
//   - Admission (Server.admit): an optional token bucket paces session
//     arrivals (Config.AdmitRate/AdmitBurst); past the bucket, the connection
//     is rejected immediately with a typed busy error frame
//     (tracelog.ErrBusy) and a retry-after hint. The MaxSessions slot wait is
//     queue-with-deadline: bounded by Config.AdmitTimeout and IdleTimeout
//     (whichever is tighter) and always interruptible by Shutdown — a waiter
//     can no longer outlive the server.
//   - Pressure (Server.pressureLevel): a 0..3 level computed from live slot
//     occupancy and the waiter count; a session that had to park for its own
//     slot is full pressure outright. Level 0 is the no-overload fast path on
//     which every degradation mechanism below is inert, which is what keeps
//     zero-pressure reports byte-identical to a server without any of this.
//   - Ladder (shedSpecs): under Config.DegradationLadder, sessions admitted
//     at level >= 1 shed the single-shard tools (highlevel), level >= 2 also
//     the broadcast tools (the lock-order detector). Block-routed tools —
//     lockset, djit, hybrid, memcheck, the paper's core detectors — are never
//     shed.
//   - Sampler (sampler, replaySampled): under Config.AdaptiveSampling, a
//     session admitted under pressure decodes in ingest rather than through
//     Pipeline.ReplayLog, dropping a deterministic per-block fraction of
//     memory-access events before dispatch. Only OpAccess is ever sampled:
//     lock, allocation, sync, segment and thread events always pass, so the
//     happens-before and lockset machinery stays sound and sampling can only
//     miss warnings, never invent them. The exact sampled-out count is
//     carried on the session, into its report header, and into the aggregate.
import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// Pressure levels. The thresholds are over MaxSessions slot occupancy; any
// parked waiter means demand already exceeds capacity, which is the strongest
// overload evidence available before a queue even forms.
const (
	pressureNone = iota
	pressureLow  // >= 3/4 of slots busy
	pressureHigh // >= 7/8 of slots busy
	pressureFull // all slots busy, or connections waiting for one
)

// pressureLevel samples the server's live overload state.
func (s *Server) pressureLevel() int {
	c := cap(s.sem)
	use := len(s.sem)
	level := pressureNone
	switch {
	case s.slotWaiters.Load() > 0 || use >= c:
		level = pressureFull
	case use*8 >= c*7:
		level = pressureHigh
	case use*4 >= c*3:
		level = pressureLow
	}
	if s.met != nil {
		s.met.pressure.Set(int64(level))
	}
	return level
}

// rejectError is an admission refusal on its way to the client as a typed
// busy error frame.
type rejectError struct {
	reason     string // metric label: "rate", "slots", "shutdown"
	msg        string
	retryAfter time.Duration
}

func (e *rejectError) Error() string { return "ingest: admission rejected: " + e.msg }

// tokenBucket paces session admission. Plain mutex + monotonic clock — a
// session admission is a heavyweight event (a whole pipeline spins up behind
// it), so a lock here costs nothing measurable.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst)}
}

// take consumes cost tokens, or reports how long until that many accrue. An
// ordinary admission costs one token; admission under pipeline backlog costs
// more (see admit), which tightens the sustained rate without a second knob.
func (b *tokenBucket) take(now time.Time, cost float64) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= cost {
		b.tokens -= cost
		return true, 0
	}
	wait := time.Duration((cost - b.tokens) / b.rate * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return false, wait
}

// admit runs the admission path for one session connection: the rate gate
// first (the cheap refusal, before any slot state is touched), then the slot
// gate. A nil error means the caller holds a MaxSessions slot; waited
// reports whether it had to park for one — direct evidence that demand
// exceeded capacity at admission, which serveConn treats as a full-pressure
// floor (the occupancy probe alone can miss it: by the time an ex-waiter
// probes, its own waiter count is gone and a slot may already have freed).
func (s *Server) admit() (waited bool, err error) {
	if s.bucket != nil {
		// Queue-load feedback: when any live session pipeline is backed up
		// past the tighten threshold, an admission costs double — the
		// sustained rate halves while the backlog lasts, without a second
		// knob. Slot occupancy says how many sessions run; queue load says
		// the ones running are not keeping up, which is the overload that
		// admitting faster can only deepen.
		cost := 1.0
		if s.maxQueueLoad() >= queueLoadTighten {
			cost = 2
		}
		if ok, retry := s.bucket.take(time.Now(), cost); !ok {
			reason := "rate"
			if cost > 1 {
				reason = "rate-queue"
			}
			return false, &rejectError{
				reason:     reason,
				msg:        fmt.Sprintf("admission rate %.3g/s exceeded", s.cfg.AdmitRate),
				retryAfter: retry,
			}
		}
	}
	return s.acquireSlot()
}

// acquireSlot takes a MaxSessions slot, queue-with-deadline. The wait is
// bounded by AdmitTimeout and by IdleTimeout (a parked waiter is an idle
// connection holding nothing — it gets no more patience than a stalled
// stream), and is always interruptible by Shutdown; with neither timeout
// configured the legacy delay-not-drop behaviour remains, minus the ability
// to outlive the server.
func (s *Server) acquireSlot() (waited bool, err error) {
	waitStart := time.Now()
	select {
	case s.sem <- struct{}{}:
		if s.met != nil {
			s.met.slotWaitNs.Observe(int64(time.Since(waitStart)))
		}
		return false, nil
	default:
	}
	s.slotWaiters.Add(1)
	if s.met != nil {
		s.met.slotWaiters.Add(1)
	}
	defer func() {
		s.slotWaiters.Add(-1)
		if s.met != nil {
			s.met.slotWaiters.Add(-1)
			s.met.slotWaitNs.Observe(int64(time.Since(waitStart)))
		}
	}()
	var deadline <-chan time.Time
	if d := s.slotWaitBound(); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case s.sem <- struct{}{}:
		return true, nil
	case <-deadline:
		return true, &rejectError{
			reason:     "slots",
			msg:        fmt.Sprintf("no analysis slot within %s (%d in use)", s.slotWaitBound(), cap(s.sem)),
			retryAfter: s.retryAfter(),
		}
	case <-s.shutdown:
		return true, &rejectError{reason: "shutdown", msg: "server shutting down"}
	}
}

// slotWaitBound is the tightest configured bound on a slot wait; 0 means
// unbounded (until shutdown).
func (s *Server) slotWaitBound() time.Duration {
	d := s.cfg.AdmitTimeout
	if t := s.cfg.IdleTimeout; t > 0 && (d <= 0 || t < d) {
		d = t
	}
	return d
}

// retryAfter is the backoff hint attached to slot rejections.
func (s *Server) retryAfter() time.Duration {
	if s.cfg.RetryAfter > 0 {
		return s.cfg.RetryAfter
	}
	return time.Second
}

// reject answers a refused connection: the typed busy frame (or a plain
// error frame for a shutdown refusal), the metric, and — for busy
// rejections — a bounded drain of whatever the client had already pipelined.
// Without the drain a client mid-way through streaming its trace would block
// on transport flow control and never reach the response read; discarding
// its remaining input lets it complete the exchange and read the busy frame.
func (s *Server) reject(conn net.Conn, fw *tracelog.FrameWriter, rej *rejectError) {
	if s.met != nil {
		s.met.admissionRejects.With(rej.reason).Inc()
	}
	if rej.reason == "shutdown" {
		fw.Error(rej.msg)
		return
	}
	fw.Error(tracelog.BusyMessage(rej.msg, rej.retryAfter))
	conn.SetReadDeadline(time.Now().Add(rejectDrainTimeout))
	io.Copy(io.Discard, conn)
}

// rejectDrainTimeout bounds how long a rejected connection may keep
// trickling input before the server abandons the drain. A well-behaved
// client closes right after reading the busy frame, ending the drain at EOF
// long before this.
const rejectDrainTimeout = 5 * time.Second

// shedSpecs applies the degradation ladder to one session's tool registry.
// The order encodes the paper's priorities: the auxiliary detectors go
// first (level >= 1 sheds single-shard tools — highlevel; level >= 2 also
// broadcast tools — the lock-order detector), while block-routed tools
// (lockset, djit, hybrid, memcheck) are never shed. A registry that would
// shed to nothing is kept whole: analysing with the only configured tools
// beats admitting a session that analyses nothing.
func shedSpecs(specs []trace.ToolSpec, level int) (kept []trace.ToolSpec, shed []string) {
	if level < pressureLow {
		return specs, nil
	}
	for _, spec := range specs {
		drop := spec.Routing == trace.RouteSingle ||
			(level >= pressureHigh && spec.Routing == trace.RouteBroadcast)
		if drop {
			shed = append(shed, spec.Name)
		} else {
			kept = append(kept, spec)
		}
	}
	if len(kept) == 0 {
		return specs, nil
	}
	return kept, shed
}

// samplerRecheck is how many events pass between pressure re-probes: cheap
// enough to track a changing overload level, coarse enough to stay invisible
// per event.
const samplerRecheck = 4096

// queueLoadTighten is the pipeline backlog fraction past which the overload
// machinery tightens: the sampler sheds another quarter of access events, and
// admission (admit) doubles the token cost of each new session.
const queueLoadTighten = 0.75

// keepPctFor maps the overload state to the percentage of memory-access
// events a session keeps. Slot pressure sets the floor; a backed-up session
// pipeline (queue load from engine.Pipeline.QueueLoad) tightens it further.
func keepPctFor(level int, queueLoad float64) int {
	pct := 100
	switch level {
	case pressureHigh:
		pct = 75
	case pressureFull:
		pct = 50
	}
	if queueLoad >= queueLoadTighten && pct > 25 {
		pct -= 25
	}
	return pct
}

// sampler is one session's adaptive access-event sampler. Dropping is
// deterministic per block (trace.Shard over the block ID), so every access
// to a kept block is analysed — the per-block candidate-set and
// happens-before state a detector builds is complete or absent, never torn.
type sampler struct {
	level     func() int     // live server pressure probe
	queueLoad func() float64 // live session pipeline backlog probe
	keepPct   int
	dropped   int64
	sinceOut  int // events since the last pressure re-probe
}

// newSampler seeds the keep percentage from the pressure level serveConn
// observed at admission (which includes the waited-for-slot floor — a live
// probe here would miss it), then re-probes live pressure as the session
// runs.
func newSampler(initial int, level func() int, queueLoad func() float64) *sampler {
	sam := &sampler{level: level, queueLoad: queueLoad}
	sam.keepPct = keepPctFor(initial, queueLoad())
	return sam
}

// keep decides one event's fate and re-probes the pressure level every
// samplerRecheck events, so a session that outlives the overload ramps back
// to full coverage (and vice versa).
func (sam *sampler) keep(ev *tracelog.Event) bool {
	if sam.sinceOut++; sam.sinceOut >= samplerRecheck {
		sam.sinceOut = 0
		sam.keepPct = keepPctFor(sam.level(), sam.queueLoad())
	}
	if ev.Op != tracelog.OpAccess || sam.keepPct >= 100 {
		return true
	}
	return trace.Shard(ev.Access.Block, 100) < sam.keepPct
}

// replaySampled is the sampling counterpart of Pipeline.ReplayLog: ingest
// owns the decode loop so the sampler can drop events before dispatch while
// counting them exactly. It returns the number of events the stream carried
// (sent = analysed + sam.dropped); the error contract matches ReplayLog.
func replaySampled(pipe engine.Pipeline, r io.Reader, sam *sampler) (int64, error) {
	dec := tracelog.AcquireDecoder(r)
	defer dec.Release()
	var ev tracelog.Event
	for {
		err := dec.Next(&ev)
		if err == io.EOF {
			return dec.Events(), nil
		}
		if err != nil {
			return dec.Events(), err
		}
		if sam.keep(&ev) {
			ev.Deliver(pipe)
		} else {
			sam.dropped++
		}
	}
}
