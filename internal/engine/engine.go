// Package engine is the analysis pipeline: it runs a tool registry — any
// number of trace.ToolSpecs — over one pass of an event stream, either a
// recorded trace (ReplayLog) or a live VM event stream (the trace.Sink
// methods), and produces one deterministic merged report.
//
// The pipeline is Sequential (see also the root doc.go):
//
//   - The stream is decoded (or received from the VM) exactly once, on the
//     caller's goroutine, into a fixed-size batch buffer. A full batch is
//     delivered tool-major: each tool runs over the whole batch under one
//     recover before the next tool sees its first event. Tools share no state
//     and need no locks.
//   - Every tool writes to a private report.Collector whose sites are stamped
//     with the global sequence number of the event that first raised them.
//     Close runs the end-of-stream passes (trace.Finisher) and merges all
//     collectors deterministically (report.Merge): duplicate sites fold with
//     summed counts and the merged order is the global first-seen order
//     across every tool — exactly what event-major delivery would produce.
//   - A tool that panics — in an event handler or in its end-of-stream pass —
//     is disabled from that point on; the other tools are unaffected and
//     Close reports the panic.
//   - An optional filter (Options.Keep) drops events from a gathered batch
//     before any tool sees them; the ingest server's sampler is one.
//   - The wall time of every tool's handlers is measured per batch
//     (ToolTimes).
//   - Snapshot is a non-perturbing mid-stream checkpoint: it delivers the
//     partly filled batch and deep-copies every collector, so the final
//     report of a run with any number of snapshots is byte-identical to a
//     snapshot-free run.
package engine

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// Options configures a Sequential.
type Options struct {
	// Shards is ignored. It is kept only because bench/ledger.go sets it,
	// and goes when the benchmark drops its "sharded" probe.
	Shards int
	// Tools is the registry: every listed tool runs over the single decode of
	// the stream. Names must be unique. Required.
	Tools []trace.ToolSpec
	// Resolver resolves stacks and blocks at reporting time; it is handed to
	// every tool's collector and to the merged result.
	Resolver trace.Resolver
	// Suppressor applies suppression rules in every tool's collector.
	Suppressor report.Suppressor
	// Metrics, when non-nil, receives hot-path instrumentation (events
	// delivered, batches flushed, snapshot clone time, caught tool panics).
	// Several pipelines may share one Metrics. Instrumentation never
	// influences analysis: reports are byte-identical with or without it.
	Metrics *Metrics
	// Keep, when non-nil, filters the stream before delivery: it is called
	// once per event, in stream order, and an event it rejects reaches no
	// tool, gets no sequence number and is not counted by Events or the
	// decoded-events metric. The ingest server's adaptive sampler is one.
	// Nil keeps every event.
	Keep func(*tracelog.Event) bool
}

// NewPipeline is NewSequential, under the name the bench module calls.
func NewPipeline(opt Options) (*Sequential, error) { return NewSequential(opt) }

// validateTools checks the registry invariants.
func validateTools(tools []trace.ToolSpec) error {
	if len(tools) == 0 {
		return fmt.Errorf("engine: no tools registered (set Options.Tools)")
	}
	seen := make(map[string]bool, len(tools))
	for _, spec := range tools {
		if spec.Factory == nil {
			return fmt.Errorf("engine: tool %q has no Factory", spec.Name)
		}
		if spec.Name == "" {
			return fmt.Errorf("engine: tool with empty Name")
		}
		if seen[spec.Name] {
			return fmt.Errorf("engine: duplicate tool name %q (give each registered tool a distinct report name)", spec.Name)
		}
		seen[spec.Name] = true
		switch spec.Routing {
		case trace.RouteBlock, trace.RouteBroadcast, trace.RouteSingle:
		default:
			// The class is the tool's shed priority under overload; an
			// unknown one is a malformed spec.
			return fmt.Errorf("engine: tool %q has unknown routing %d", spec.Name, spec.Routing)
		}
	}
	return nil
}

// copyEdges appends in to an edge arena and returns the arena-owned copy,
// capacity-limited so nothing appended later is reachable through it. Arena
// growth may move the backing array; slices handed out earlier keep pointing
// at the old array, whose contents are already written and never mutated, so
// they stay valid.
func copyEdges(arena *[]trace.SegmentEdge, in []trace.SegmentEdge) []trace.SegmentEdge {
	start := len(*arena)
	*arena = append(*arena, in...)
	return (*arena)[start:len(*arena):len(*arena)]
}
