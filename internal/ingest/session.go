package ingest

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// SessionState is a session's lifecycle position.
type SessionState uint8

// Session lifecycle states.
const (
	// StateOpen: connection accepted, handshake pending.
	StateOpen SessionState = iota
	// StateStreaming: events are being decoded into the pipeline.
	StateStreaming
	// StateDrained: end frame received; pipeline closing.
	StateDrained
	// StateReported: analysis complete, report produced and being (or
	// already) delivered to the client; terminal unless delivery fails,
	// which downgrades the session to failed.
	StateReported
	// StateFailed: handshake, stream, pipeline or write failure; terminal.
	StateFailed
)

func (s SessionState) String() string {
	switch s {
	case StateOpen:
		return "open"
	case StateStreaming:
		return "streaming"
	case StateDrained:
		return "drained"
	case StateReported:
		return "reported"
	default:
		return "failed"
	}
}

// outcomes is what a rollup counts a session in each state as; the zero
// Outcome, serve.Active, covers open, streaming and drained.
var outcomes = [...]serve.Outcome{StateReported: serve.Reported, StateFailed: serve.Failed}

// Snapshot is one periodic incremental report of a streaming session: the
// pipeline's mid-stream merged report, rendered, together with its site
// manifest (report.Collector.Manifest) — the machine-checkable form clients
// verify against the final report.
type Snapshot struct {
	// Events is the number of stream events analysed when the snapshot was
	// taken.
	Events int64
	// Report is the rendered incremental report, resolved against the
	// metadata tables received so far.
	Report string
	// Manifest is the snapshot's site manifest; it is always a
	// prefix-consistent subset of the session's final manifest.
	Manifest string
}

// Session is one client stream's registry entry.
type Session struct {
	ID   uint64
	Name string
	// Opened is when the session was registered; the "sessions" query
	// renders each entry's age from it.
	Opened time.Time

	met *serverMetrics // the server's metric handles; its state gauges count this session

	mu      sync.Mutex
	state   SessionState
	events  int64
	err     error
	col     *report.Collector // set in StateReported
	sums    map[string]trace.ToolSummary
	snaps   []Snapshot // retained incremental reports, oldest first
	dropped int        // older snapshots discarded by the retention cap
	done    bool       // handler finished: report delivered or failure final

	// Overload bookkeeping: what this session's analysis gave up under
	// pressure (exact counts — degraded reports are honest), and snapshot
	// failures that would otherwise vanish.
	sampledOut   int64    // access events shed by the adaptive sampler
	shed         []string // tools shed by the degradation ladder at admission
	snapErrs     int      // failed incremental snapshot attempts
	snapErr      error    // the most recent of them
	snapDeferred int      // snapshot ticks deferred under pressure (AdaptiveReportInterval)
}

// maxSessionSnapshots bounds one session's retained incremental reports: a
// never-ending stream takes a snapshot every ReportInterval forever, so
// without a cap the session would grow without limit and the "snapshots"
// query response would eventually exceed the frame-payload bound. The oldest
// snapshots are discarded first — the freshest ones are the ones a live
// observer wants, and every retained snapshot individually keeps the
// prefix-consistency guarantee.
const maxSessionSnapshots = 64

// State returns the current lifecycle state.
func (s *Session) State() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Events returns the number of events the session's stream carried. It is
// set when the stream ends (drained or failed) and, with incremental
// reporting enabled (Config.ReportInterval), additionally refreshed at every
// snapshot — so a long-lived streaming session shows its progress instead of
// 0.
func (s *Session) Events() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events
}

// SampledOut returns the exact number of access events the adaptive sampler
// shed from this session: Events() + SampledOut() is what the stream carried.
func (s *Session) SampledOut() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sampledOut
}

// ShedTools returns the tools the degradation ladder removed from this
// session's registry at admission; nil for a full-coverage session.
func (s *Session) ShedTools() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.shed...)
}

// Degraded reports whether the session's analysis gave anything up under
// overload pressure (sampled events or shed tools).
func (s *Session) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sampledOut > 0 || len(s.shed) > 0
}

// SnapshotErrs returns how many incremental snapshot attempts failed, and
// the most recent failure.
func (s *Session) SnapshotErrs() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapErrs, s.snapErr
}

// noteSnapshotError records one failed incremental snapshot attempt. The
// stream goes on — a failed snapshot loses one checkpoint, not the session —
// but the failure is counted and kept instead of dropped on the floor.
func (s *Session) noteSnapshotError(err error) {
	s.mu.Lock()
	s.snapErrs++
	s.snapErr = err
	s.mu.Unlock()
}

// SnapshotsDeferred returns how many snapshot ticks the pressure-adaptive
// cadence skipped for this session (Config.AdaptiveReportInterval).
func (s *Session) SnapshotsDeferred() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapDeferred
}

// noteSnapshotDeferred records one snapshot tick skipped under pressure.
func (s *Session) noteSnapshotDeferred() {
	s.mu.Lock()
	s.snapDeferred++
	s.mu.Unlock()
}

// degradedHeader renders the honesty annotation prepended to the reports of
// a session that analysed less than its stream carried. Empty for a
// full-coverage session, so undegraded reports are byte-identical to a
// server without overload handling.
func degradedHeader(sampledOut int64, shed []string) string {
	if sampledOut == 0 && len(shed) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("== degraded:")
	if sampledOut > 0 {
		fmt.Fprintf(&b, " sampled-out=%d event(s)", sampledOut)
	}
	if len(shed) > 0 {
		fmt.Fprintf(&b, " tools-shed=%s", strings.Join(shed, ","))
	}
	b.WriteByte('\n')
	return b.String()
}

// Snapshots returns the session's incremental reports so far, oldest first.
func (s *Session) Snapshots() []Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Snapshot(nil), s.snaps...)
}

// addSnapshot records one incremental report, discarding the oldest beyond
// maxSessionSnapshots, and refreshes the live event count.
func (s *Session) addSnapshot(sn Snapshot) {
	s.mu.Lock()
	if len(s.snaps) >= maxSessionSnapshots {
		n := copy(s.snaps, s.snaps[1:])
		s.snaps = s.snaps[:n]
		s.dropped++
	}
	s.snaps = append(s.snaps, sn)
	s.events = sn.Events
	s.mu.Unlock()
}

// LatestReport returns the freshest rendered report the session has: the
// final report once reported — rendered from its collector exactly as its
// client received it — otherwise the newest incremental snapshot, otherwise
// a status line. This is what a "session <name>" query receives.
func (s *Session) LatestReport() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.state == StateReported:
		return degradedHeader(s.sampledOut, s.shed) + s.col.Format()
	case len(s.snaps) > 0:
		return s.snaps[len(s.snaps)-1].Report
	default:
		return fmt.Sprintf("== session %s: state=%s, no incremental report yet\n", s.Name, s.state)
	}
}

// FormatSnapshots renders the session's snapshot manifests — the response to
// a "snapshots <name>" query, and the input clients feed to
// report.PrefixConsistent against the final report's manifest.
func (s *Session) FormatSnapshots() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "== session %s: %d snapshot(s)", s.Name, len(s.snaps))
	if s.dropped > 0 {
		fmt.Fprintf(&b, " (%d older discarded)", s.dropped)
	}
	if s.snapErrs > 0 {
		fmt.Fprintf(&b, " (%d failed, last: %v)", s.snapErrs, s.snapErr)
	}
	if s.snapDeferred > 0 {
		fmt.Fprintf(&b, " (%d tick(s) deferred under pressure)", s.snapDeferred)
	}
	b.WriteByte('\n')
	for i, sn := range s.snaps {
		fmt.Fprintf(&b, "== snapshot %d: events=%d\n%s", s.dropped+i+1, sn.Events, sn.Manifest)
	}
	return b.String()
}

// Err returns the terminal failure of a failed session.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// resultLocked is the session's outcome as a per-session record: what a
// rollup adds, and, with Report set, what a backend returns. Callers hold s.mu.
func (s *Session) resultLocked() *tracelog.BackendResult {
	return &tracelog.BackendResult{
		Name: s.Name, Events: s.events, SampledOut: s.sampledOut,
		Shed: s.shed, Sums: s.sums, Col: s.col,
	}
}

// markDone records that the session's handler has finished: its state can no
// longer change, so the retention policy may fold it.
func (s *Session) markDone() {
	s.mu.Lock()
	s.done = true
	s.mu.Unlock()
}

// foldable reports whether the session has reached a state the retention
// policy may fold: terminal AND with its handler finished — a session marked
// reported whose report is still being written can yet downgrade to failed,
// and folding it early would freeze the wrong lifecycle count.
func (s *Session) foldable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done && (s.state == StateReported || s.state == StateFailed)
}

// transitionLocked advances the lifecycle and moves the state-gauge census
// with it. Callers hold s.mu.
func (s *Session) transitionLocked(st SessionState) {
	if st != s.state {
		s.met.states[s.state].Add(-1)
		s.met.states[st].Add(1)
	}
	s.state = st
}

// setState advances the lifecycle under the session lock.
func (s *Session) setState(st SessionState) {
	s.mu.Lock()
	s.transitionLocked(st)
	s.mu.Unlock()
}

func (s *Session) fail(err error) {
	s.mu.Lock()
	s.transitionLocked(StateFailed)
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}
