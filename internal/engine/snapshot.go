package engine

import (
	"fmt"
	"time"

	"repro/internal/report"
	"repro/internal/trace"
)

// This file is the snapshot lifecycle: a mid-stream, non-perturbing checkpoint
// of the whole pipeline. Snapshot produces the exact merged report a Close at
// this point in the stream would have produced (minus end-of-stream Finisher
// passes, which must not run early — they may mutate tool state), while the
// live run continues untouched: the final report of a run with any number of
// interleaved snapshots is byte-identical to a snapshot-free run. The ingest
// server builds its periodic incremental session reports on this.

// Snapshot quiesces the pipeline at the current stream position and returns
// the deterministic merged report of everything analysed so far.
//
// For the sharded engine this is a per-shard barrier: the dispatcher flushes
// its partial batches, sends a quiesce marker down every shard channel, and
// waits until all workers have drained their queues up to the marker and
// parked. With every delivery quiescent, each instance collector is deep-
// copied through its trace.Snapshotter capability; the workers then resume.
// The copies are merged exactly as Close merges the originals, so snapshot
// ordering follows the same global first-seen order — a snapshot manifest is
// always a prefix of the final manifest (report.PrefixConsistent).
//
// Snapshot must be called from the dispatching goroutine (the same one
// delivering events), between events — the Engine's usual single-dispatcher
// contract. Tool warnings from trace.Finisher passes are absent from
// snapshots by design: Finish runs only in Close.
//
// After Close, Snapshot returns an error. After a mid-stream failure it
// returns the stream error and no collector — a snapshot of a failed prefix
// would be as misleading as a partial final report.
func (e *Engine) Snapshot() (*report.Collector, error) {
	if e.closed {
		return nil, fmt.Errorf("engine: Snapshot after Close")
	}
	if e.streamErr != nil {
		return nil, fmt.Errorf("engine: stream failed after %d events: %w", e.seq, e.streamErr)
	}
	// Quiesce: marker after the flushed partial batches, then wait for every
	// worker to drain up to it and park.
	e.flushMetrics()
	var quiesceStart time.Time
	if e.met != nil {
		quiesceStart = time.Now()
	}
	e.snapWG.Add(len(e.shards))
	for _, s := range e.shards {
		if len(s.pending.ev) > 0 {
			s.ch <- s.pending
			s.pending = e.newBatch()
			if e.met != nil {
				e.met.BatchesFlushed.Inc()
			}
		}
		s.ch <- nil
	}
	e.snapWG.Wait()
	if e.met != nil {
		e.met.SnapshotQuiesceNs.Observe(int64(time.Since(quiesceStart)))
	}
	// All workers parked: instance state is safe to read from here.
	cols := make([]*report.Collector, len(e.insts))
	for i, ti := range e.insts {
		cols[i] = snapshotCollector(ti.col)
	}
	// Resume: one gate token handed to each parked worker.
	for range e.shards {
		e.snapGate <- struct{}{}
	}
	return report.Merge(e.opt.Resolver, e.opt.Suppressor, cols...), nil
}

// Snapshot returns the deterministic merged report of everything analysed so
// far, without ending the stream — the Sequential counterpart of
// Engine.Snapshot, with the same contract. The quiesce is delivering the
// partly filled batch: after it the collectors cover exactly Events() events
// and are at rest.
func (s *Sequential) Snapshot() (*report.Collector, error) {
	if s.closed {
		return nil, fmt.Errorf("engine: Snapshot after Close")
	}
	if s.streamErr != nil {
		return nil, fmt.Errorf("engine: stream failed after %d events: %w", s.seq, s.streamErr)
	}
	s.flush()
	var cloneStart time.Time
	if s.met != nil {
		cloneStart = time.Now()
	}
	cols := make([]*report.Collector, len(s.insts))
	for i, ti := range s.insts {
		cols[i] = snapshotCollector(ti.col)
	}
	if s.met != nil {
		s.met.SnapshotQuiesceNs.Observe(int64(time.Since(cloneStart)))
	}
	return report.Merge(s.opt.Resolver, s.opt.Suppressor, cols...), nil
}

// snapshotCollector checkpoints one instance collector through the
// trace.Snapshotter capability (report.Collector always provides it).
func snapshotCollector(col *report.Collector) *report.Collector {
	return trace.Snapshotter(col).SnapshotReport().(*report.Collector)
}
