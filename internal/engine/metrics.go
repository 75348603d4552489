package engine

import "repro/internal/obs"

// Metrics is the engine's self-observability surface: process-wide counters
// the delivery and snapshot paths feed when Options.Metrics is set. One
// Metrics may be shared by any number of pipelines (the ingest server shares
// one across every session), since every field is concurrency-safe; nil
// disables instrumentation entirely.
//
// Instrumentation never touches collectors or tool state, so reports are
// byte-identical with metrics attached or not — the ingest obs-conformance
// test pins this — and the hot-path cost is one add per delivered batch.
type Metrics struct {
	// EventsDecoded counts source events delivered into pipelines.
	EventsDecoded *obs.Counter
	// BatchesFlushed counts event batches delivered to the tools, including
	// the partial batches delivered by Snapshot and Close.
	BatchesFlushed *obs.Counter
	// SnapshotQuiesceNs observes the collector clone time of each snapshot.
	SnapshotQuiesceNs *obs.Histogram
	// ToolPanics counts tool panics caught by the pipelines; each disables
	// the tool that panicked.
	ToolPanics *obs.Counter
}

// NewMetrics registers the engine metric families on reg and returns the
// resolved handles. Idempotent per registry: a second call returns handles
// onto the same series.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		EventsDecoded:  reg.Counter("engine_events_decoded_total", "Source events decoded and dispatched into analysis pipelines."),
		BatchesFlushed: reg.Counter("engine_batches_flushed_total", "Event batches delivered to the tools."),
		SnapshotQuiesceNs: reg.Histogram("engine_snapshot_quiesce_ns",
			"Pipeline snapshot collector clone time, nanoseconds.", obs.LatencyBuckets()),
		ToolPanics: reg.Counter("engine_tool_panics_total", "Tool panics caught by the engine; each disables the tool that panicked."),
	}
}
