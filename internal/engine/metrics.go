package engine

import (
	"strconv"

	"repro/internal/obs"
)

// Metrics is the engine's self-observability surface: process-wide counters
// the dispatch and snapshot hot paths feed when Options.Metrics is set. One
// Metrics may be shared by any number of pipelines (the ingest server shares
// one across every session), since every field is concurrency-safe; nil
// disables instrumentation entirely.
//
// Instrumentation never touches collectors or tool state, so reports are
// byte-identical with metrics attached or not — the ingest obs-conformance
// test pins this — and the hot-path cost is kept off the allocation profile:
// the sharded dispatcher's per-event work is one local increment, folded into
// the shared counters every metricsFlushEvery events and at every snapshot and
// close boundary; Sequential adds once per delivered batch.
type Metrics struct {
	// EventsDecoded counts source events dispatched into pipelines (each
	// event once, however many shards it fans out to).
	EventsDecoded *obs.Counter
	// BatchesFlushed counts event batches handed to shard channels,
	// including the partial batches flushed by Snapshot and Close.
	BatchesFlushed *obs.Counter
	// QueueHWM records, per shard index, the high watermark of channel
	// occupancy (in batches) observed at enqueue time — the saturation
	// signal for QueueDepth tuning.
	QueueHWM *obs.GaugeVec
	// SnapshotQuiesceNs observes the latency of each snapshot quiesce: from
	// barrier emission to every worker parked (sharded), or the inline
	// clone time (sequential).
	SnapshotQuiesceNs *obs.Histogram
	// ToolPanics counts panics absorbed by instance SafeSinks.
	ToolPanics *obs.Counter
}

// NewMetrics registers the engine metric families on reg and returns the
// resolved handles. Idempotent per registry: a second call returns handles
// onto the same series.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		EventsDecoded:  reg.Counter("engine_events_decoded_total", "Source events decoded and dispatched into analysis pipelines."),
		BatchesFlushed: reg.Counter("engine_batches_flushed_total", "Event batches flushed to shard channels."),
		QueueHWM:       reg.GaugeVec("engine_shard_queue_hwm_batches", "High watermark of per-shard channel occupancy, in batches.", "shard"),
		SnapshotQuiesceNs: reg.Histogram("engine_snapshot_quiesce_ns",
			"Latency of pipeline snapshot quiesce (barrier to all workers parked), nanoseconds.", obs.LatencyBuckets()),
		ToolPanics: reg.Counter("engine_tool_panics_total", "Tool panics absorbed by SafeSink isolation."),
	}
}

// metricsFlushEvery is how many locally-counted events accumulate before
// being folded into the shared EventsDecoded counter: one atomic add per
// this many events keeps the instrumented dispatch path within benchmark
// noise of the uninstrumented one.
const metricsFlushEvery = 1024

// shardQueueGauges resolves the per-shard high-watermark gauges once, so the
// enqueue path never performs a labelled lookup.
func shardQueueGauges(m *Metrics, shards int) []*obs.Gauge {
	if m == nil {
		return nil
	}
	out := make([]*obs.Gauge, shards)
	for i := range out {
		out[i] = m.QueueHWM.With(strconv.Itoa(i))
	}
	return out
}
