package ingest

import (
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/tracelog"
)

// serverMetrics is the ingest daemon's self-observability surface, resolved
// once at NewServer from Config.Metrics. The engine metrics are shared across
// every session pipeline, so the engine_* series aggregate the whole daemon.
// Instrumentation never influences analysis: session and aggregate reports
// are byte-identical to an unmetered offline replay.
type serverMetrics struct {
	reg    *obs.Registry // what the "stats" query renders
	engine *engine.Metrics

	// states holds one gauge per lifecycle state (ingest_sessions{state=}),
	// indexed by SessionState — the live census of the registry plus
	// in-flight handlers.
	states [StateFailed + 1]*obs.Gauge

	sessionsOpened *obs.Counter
	eventsTotal    *obs.Counter

	// frames and frameBytes index by FrameKind (ingest_frames_read_total and
	// ingest_frame_bytes_read_total, labelled by kind name), pre-resolved for
	// the known kinds so the per-frame hook is two plain increments; the vecs
	// are kept for the (hostile-input) kinds outside the known range.
	frames        [tracelog.FrameBackendStats + 1]*obs.Counter
	frameBytes    [tracelog.FrameBackendStats + 1]*obs.Counter
	frameVec      *obs.CounterVec
	frameBytesVec *obs.CounterVec

	slotWaitNs     *obs.Histogram
	idleKills      *obs.Counter
	folds          *obs.Counter
	snapshotsTaken *obs.Counter

	// Overload-survival surface: admission refusals by reason, the live
	// slot-waiter census and pressure level, what the sampler and the
	// degradation ladder shed, failed incremental snapshots, and what the
	// bounded retention fold compacted away.
	admissionRejects   *obs.CounterVec
	slotWaiters        *obs.Gauge
	pressure           *obs.Gauge
	sampledOut         *obs.Counter
	shedTools          *obs.CounterVec
	degradedSessions   *obs.Counter
	snapshotErrors     *obs.Counter
	snapshotsDeferred  *obs.Counter
	foldCompactedSites *obs.Counter

	// warnings counts distinct warning sites per tool, accumulated from each
	// session's final report as it lands.
	warnings *obs.CounterVec
}

// newServerMetrics registers the ingest metric families (plus the shared
// engine families) on reg, or on a registry of the server's own when reg is
// nil.
func newServerMetrics(reg *obs.Registry) *serverMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &serverMetrics{
		reg:            reg,
		engine:         engine.NewMetrics(reg),
		sessionsOpened: reg.Counter("ingest_sessions_opened_total", "Client sessions accepted and registered."),
		eventsTotal:    reg.Counter("ingest_events_total", "Trace events analysed across all sessions (final per-session counts)."),
		slotWaitNs: reg.Histogram("ingest_slot_wait_ns",
			"Time sessions waited for a MaxSessions analysis slot, nanoseconds.", obs.LatencyBuckets()),
		idleKills:      reg.Counter("ingest_idle_timeout_kills_total", "Sessions failed by the IdleTimeout rolling deadline."),
		folds:          reg.Counter("ingest_retention_folds_total", "Terminal sessions folded into the aggregate and evicted by RetainSessions."),
		snapshotsTaken: reg.Counter("ingest_snapshots_taken_total", "Incremental session snapshots taken (ReportInterval)."),
		warnings:       reg.CounterVec("ingest_tool_warning_sites_total", "Distinct warning sites in final session reports, per tool.", "tool"),
		admissionRejects: reg.CounterVec("ingest_admission_rejected_total",
			"Session connections refused with a busy error, by reason (slots, shutdown).", "reason"),
		slotWaiters:       reg.Gauge("ingest_slot_waiters", "Connections currently parked waiting for a MaxSessions slot."),
		pressure:          reg.Gauge("ingest_pressure_level", "Overload pressure level at the last probe (0 none .. 3 full)."),
		sampledOut:        reg.Counter("ingest_sampled_events_total", "Access events shed by adaptive sampling under overload pressure."),
		shedTools:         reg.CounterVec("ingest_shed_tools_total", "Tools shed from sessions by the degradation ladder, per tool.", "tool"),
		degradedSessions:  reg.Counter("ingest_degraded_sessions_total", "Sessions that analysed less than their stream carried (sampling or shed tools)."),
		snapshotErrors:    reg.Counter("ingest_snapshot_errors_total", "Failed incremental snapshot attempts (recorded on the session, stream continues)."),
		snapshotsDeferred: reg.Counter("ingest_snapshots_deferred_total", "Snapshot ticks skipped by the pressure-adaptive cadence (AdaptiveReportInterval)."),
		foldCompactedSites: reg.Counter("ingest_fold_compacted_sites_total",
			"Warning sites discarded from the retention fold by FoldSiteCap."),
	}
	stateGauges := reg.GaugeVec("ingest_sessions", "Sessions currently in each lifecycle state.", "state")
	for st := StateOpen; st <= StateFailed; st++ {
		m.states[st] = stateGauges.With(st.String())
	}
	m.frameVec = reg.CounterVec("ingest_frames_read_total", "Frames read from client connections, per kind.", "kind")
	m.frameBytesVec = reg.CounterVec("ingest_frame_bytes_read_total", "Frame payload bytes read from client connections, per kind.", "kind")
	for k := tracelog.FrameHello; k <= tracelog.FrameBackendStats; k++ {
		m.frames[k] = m.frameVec.With(k.String())
		m.frameBytes[k] = m.frameBytesVec.With(k.String())
	}
	return m
}

// observeFrame is the FrameReader observer hook: one frame header decoded.
func (m *serverMetrics) observeFrame(kind tracelog.FrameKind, payloadBytes int) {
	i := int(kind)
	if i == 0 || i >= len(m.frames) {
		// A kind outside the protocol range (hostile or corrupt input): count
		// it under its own label through the slower vec path.
		m.frameVec.With(kind.String()).Inc()
		m.frameBytesVec.With(kind.String()).Add(int64(payloadBytes))
		return
	}
	m.frames[i].Inc()
	m.frameBytes[i].Add(int64(payloadBytes))
}
