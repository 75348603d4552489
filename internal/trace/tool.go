package trace

// Routing is a tool's shed priority: the order in which the ingest server's
// degradation ladder removes tools from a session admitted under overload
// pressure (ingest.Config.DegradationLadder). Every tool in a pipeline sees
// the full ordered stream whatever its class; the class only decides which
// tools an overloaded daemon gives up first.
type Routing uint8

// Routing classes, from never shed to shed first.
const (
	// RouteBlock marks the paper's core detectors — lockset, DJIT, hybrid
	// and memcheck, whose warnings arise from block-carrying events. The
	// ladder never sheds them.
	RouteBlock Routing = iota
	// RouteBroadcast marks auxiliary tools that warn from synchronisation
	// events only (the lock-order deadlock detector). The ladder sheds them
	// at high pressure.
	RouteBroadcast
	// RouteSingle marks auxiliary tools whose state spans blocks (the
	// view-consistency checker). The ladder sheds them first, at low
	// pressure.
	RouteSingle
)

func (r Routing) String() string {
	switch r {
	case RouteBlock:
		return "block-routed"
	case RouteBroadcast:
		return "broadcast"
	default:
		return "single-shard"
	}
}

// ToolFactory builds one tool instance writing its warnings to col. The
// engine calls it once per pipeline; every call must return a fresh instance
// sharing no mutable state with earlier ones.
type ToolFactory func(col Reporter) Sink

// ToolSpec registers one analysis tool with the engine. Every detector
// package exports a Spec constructor returning its canonical entry:
// lockset.Spec, vectorclock.Spec, hybrid.Spec, deadlock.Spec, memcheck.Spec,
// highlevel.Spec. Any number of specs — several race detector configurations
// side by side, plus all auxiliary checkers — can run over a single decode of
// the stream.
type ToolSpec struct {
	// Name identifies the tool within a run; the engine rejects duplicate
	// names. It should equal the report name the tool stamps into warnings
	// (Warning.Tool), since that name keys warning deduplication.
	Name string
	// Routing is the tool's shed priority (see Routing).
	Routing Routing
	// Factory builds the tool's instances. Required.
	Factory ToolFactory
}

// Finisher is implemented by tools that run an end-of-stream analysis pass
// (the view-consistency checker accumulates views during the run and compares
// them at the end). The engine invokes Finish after the last event and before
// merging reports; warnings added from Finish are sequenced after every
// stream event, so the merged order stays deterministic.
type Finisher interface {
	Finish()
}

// ToolSummary is a tool's end-of-run counter rollup, keyed by counter name
// (e.g. "errors", "leaked-blocks", "leaked-bytes"). Warning sites reach a
// report through the collectors; a summary carries the plain counters that
// have no site, so they can be reported per session and summed across
// sessions.
type ToolSummary map[string]int64

// Merge adds every counter of other into s.
func (s ToolSummary) Merge(other ToolSummary) {
	for k, v := range other {
		s[k] += v
	}
}

// Summarizer is implemented by tools with dynamic end-of-run counters. The
// engine collects SummaryCounts from every tool after the stream ends, keyed
// by tool name.
type Summarizer interface {
	SummaryCounts() ToolSummary
}
