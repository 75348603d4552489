package ingest

// Overload survival: bounded admission, the pressure signal, the degradation
// ladder and the adaptive event sampler. The paper's premise is always-on
// analysis of production servers; what that demands of the daemon is that it
// trades analysis coverage for survival under pressure — and says exactly
// what it traded — instead of parking clients forever on a full semaphore.
//
// The moving parts, from the outside in:
//
//   - Admission (Server.admit): the MaxSessions slot wait is the one gate. It
//     is queue-with-deadline: bounded by Config.AdmitTimeout and IdleTimeout
//     (whichever is tighter) and always interruptible by Shutdown — a waiter
//     can no longer outlive the server. A connection that outwaits the bound
//     is rejected with a typed busy error frame (tracelog.ErrBusy) and a
//     retry-after hint.
//   - Pressure (Server.pressureLevel): a 0..3 level computed from live slot
//     occupancy and the waiter count; a session that had to park for its own
//     slot is full pressure outright. Level 0 is the no-overload fast path on
//     which every degradation mechanism below is inert, which is what keeps
//     zero-pressure reports byte-identical to a server without any of this.
//   - Ladder (shedSpecs): under Config.DegradationLadder, sessions admitted
//     at level >= 1 shed the single-routed tools (highlevel), level >= 2 also
//     the broadcast tools (the lock-order detector). Block-routed tools —
//     lockset, djit, hybrid, memcheck, the paper's core detectors — are never
//     shed.
//   - Sampler (sampler): under Config.AdaptiveSampling, a session admitted
//     under pressure filters its pipeline's decoded batches
//     (engine.Options.Keep), dropping a deterministic per-block fraction of
//     memory-access events before dispatch. Only OpAccess is ever sampled:
//     lock, allocation, sync, segment and thread events always pass, so the
//     happens-before and lockset machinery stays sound and sampling can only
//     miss warnings, never invent them. The exact sampled-out count is
//     carried on the session, into its report header, and into the aggregate.
import (
	"fmt"
	"io"
	"net"
	"time"

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
	s.met.pressure.Set(int64(level))
	return level
}

// rejectError is an admission refusal on its way to the client as a typed
// busy error frame.
type rejectError struct {
	reason string // metric label: "slots", "shutdown"
	msg    string
}

func (e *rejectError) Error() string { return "ingest: admission rejected: " + e.msg }

// admit is the first phase of a session: the slot gate, the pressure level,
// the degradation ladder and the registry entry. A nil rejection means the
// caller holds a MaxSessions slot and a registered session.
func (s *Server) admit(name string) (*sessionRun, *rejectError) {
	waited, rej := s.acquireSlot()
	if rej != nil {
		return nil, rej
	}

	// The degradation ladder and the sampler both key off the pressure level
	// observed now, at admission — the moment the slot was contended. A
	// session that had to park for its slot saw demand exceed capacity
	// first-hand: that is full pressure regardless of what the occupancy
	// probe says a moment later (by the time an ex-waiter probes, its own
	// waiter count is gone and a slot may already have freed). At zero
	// pressure both mechanisms are inert and the session is analysed exactly
	// as it would be with the features off.
	run := &sessionRun{level: pressureNone, specs: s.cfg.Tools()}
	if s.cfg.DegradationLadder || s.cfg.AdaptiveSampling {
		if run.level = s.pressureLevel(); waited {
			run.level = pressureFull
		}
	}
	if s.cfg.DegradationLadder {
		run.specs, run.shed = shedSpecs(run.specs, run.level)
	}

	run.sess = s.register(name)
	if len(run.shed) > 0 {
		run.sess.mu.Lock()
		run.sess.shed = run.shed
		run.sess.mu.Unlock()
		for _, tool := range run.shed {
			s.met.shedTools.With(tool).Inc()
		}
	}
	return run, nil
}

// acquireSlot takes a MaxSessions slot, queue-with-deadline. The wait is
// bounded by AdmitTimeout and by IdleTimeout (a parked waiter is an idle
// connection holding nothing — it gets no more patience than a stalled
// stream), and is always interruptible by Shutdown; with neither timeout
// configured the legacy delay-not-drop behaviour remains, minus the ability
// to outlive the server. waited reports whether it had to park for the slot.
func (s *Server) acquireSlot() (waited bool, rej *rejectError) {
	waitStart := time.Now()
	select {
	case s.sem <- struct{}{}:
		s.met.slotWaitNs.Observe(int64(time.Since(waitStart)))
		return false, nil
	default:
	}
	s.slotWaiters.Add(1)
	s.met.slotWaiters.Add(1)
	defer func() {
		s.slotWaiters.Add(-1)
		s.met.slotWaiters.Add(-1)
		s.met.slotWaitNs.Observe(int64(time.Since(waitStart)))
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
			reason: "slots",
			msg:    fmt.Sprintf("no analysis slot within %s (%d in use)", s.slotWaitBound(), cap(s.sem)),
		}
	case <-s.loop.Done():
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

// slotRetryAfter is the backoff hint attached to every busy rejection.
const slotRetryAfter = time.Second

// reject answers a refused connection: the typed busy frame (or a plain
// error frame for a shutdown refusal), the metric, and — for busy
// rejections — a bounded drain of whatever the client had already pipelined.
// Without the drain a client mid-way through streaming its trace would block
// on transport flow control and never reach the response read; discarding
// its remaining input lets it complete the exchange and read the busy frame.
func (s *Server) reject(conn net.Conn, fw *tracelog.FrameWriter, rej *rejectError) {
	s.met.admissionRejects.With(rej.reason).Inc()
	if rej.reason == "shutdown" {
		fw.Error(rej.msg)
		return
	}
	fw.Error(tracelog.BusyMessage(rej.msg, slotRetryAfter))
	conn.SetReadDeadline(time.Now().Add(rejectDrainTimeout))
	io.Copy(io.Discard, conn)
}

// rejectDrainTimeout bounds how long a rejected connection may keep
// trickling input before the server abandons the drain. A well-behaved
// client closes right after reading the busy frame, ending the drain at EOF
// long before this.
const rejectDrainTimeout = 5 * time.Second

// shedSpecs applies the degradation ladder to one session's tool registry.
// The order is each spec's trace.Routing class, which encodes the paper's
// priorities: the auxiliary detectors go first (level >= 1 sheds
// single-routed tools — highlevel; level >= 2 also broadcast tools — the
// lock-order detector), while block-routed tools (lockset, djit, hybrid,
// memcheck) are never shed. A registry that would shed to nothing is kept
// whole: analysing with the only configured tools beats admitting a session
// that analyses nothing.
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

// keepPctFor maps the overload pressure level to the percentage of
// memory-access events a session keeps.
func keepPctFor(level int) int {
	switch level {
	case pressureHigh:
		return 75
	case pressureFull:
		return 50
	}
	return 100
}

// keepBlock decides whether the sampler keeps the accesses to block b at
// keepPct percent. The block ID is scrambled with the MurmurHash3 fmix32
// finaliser first: IDs are small sequential integers, so a plain modulo
// would keep or drop neighbouring allocations together.
func keepBlock(b trace.BlockID, keepPct int) bool {
	x := uint32(b)
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x%100 < uint32(keepPct)
}

// sampler is one session's adaptive access-event sampler. Dropping is
// deterministic per block (keepBlock), so every access to a kept block is
// analysed — the per-block candidate-set and happens-before state a detector
// builds is complete or absent, never torn.
type sampler struct {
	level    func() int // live server pressure probe
	keepPct  int
	dropped  int64
	sinceOut int // events since the last pressure re-probe
}

// newSampler seeds the keep percentage from the pressure level admit
// observed (which includes the waited-for-slot floor — a live probe here
// would miss it), then re-probes live pressure as the session runs.
func newSampler(initial int, level func() int) *sampler {
	return &sampler{level: level, keepPct: keepPctFor(initial)}
}

// keep decides one event's fate, counting the drops, and re-probes the
// pressure level every samplerRecheck events, so a session that outlives the
// overload ramps back to full coverage (and vice versa). It is the session
// pipeline's engine.Options.Keep, which calls it once per event in stream
// order.
func (sam *sampler) keep(ev *tracelog.Event) bool {
	if sam.sinceOut++; sam.sinceOut >= samplerRecheck {
		sam.sinceOut = 0
		sam.keepPct = keepPctFor(sam.level())
	}
	if ev.Op != tracelog.OpAccess || sam.keepPct >= 100 || keepBlock(ev.Access.Block, sam.keepPct) {
		return true
	}
	sam.dropped++
	return false
}
