// Package deadlock implements a lock-order-graph deadlock detector — the
// "race-checker also does dead-lock detection" capability the paper relies
// on to replace the application's own timed-lock monitor (§3.3).
//
// Whenever a thread acquires lock B while holding lock A, the edge A→B is
// added to a global lock-order graph. A cycle in that graph is a potential
// deadlock, reported even if the run never actually deadlocks — unlike the
// application-level timeout approach, which only fires when the deadlock
// manifests.
package deadlock

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/report"
	"repro/internal/trace"
)

// Config parameterises the detector.
type Config struct {
	// Tool is the report name; defaults to "helgrind-deadlock".
	Tool string
}

// edgeInfo remembers the first observation of a lock-order edge.
type edgeInfo struct {
	stack  trace.StackID
	thread trace.ThreadID
}

// Detector is the lock-order tool.
type Detector struct {
	trace.BaseSink
	cfg      Config
	col      trace.Reporter
	held     map[trace.ThreadID][]trace.LockID // acquisition order per thread
	edges    map[trace.LockID]map[trace.LockID]edgeInfo
	reported map[string]bool
	cycles   int
}

// Spec registers the detector with the analysis engine's tool registry. The
// lock-order tool is broadcast-routed: an auxiliary checker the overload
// ladder sheds at high pressure, after the single-routed tools.
func Spec(cfg Config) trace.ToolSpec {
	if cfg.Tool == "" {
		cfg.Tool = "helgrind-deadlock"
	}
	return trace.ToolSpec{
		Name:    cfg.Tool,
		Routing: trace.RouteBroadcast,
		Factory: func(col trace.Reporter) trace.Sink { return New(cfg, col) },
	}
}

// New creates a deadlock detector writing to col.
func New(cfg Config, col trace.Reporter) *Detector {
	if cfg.Tool == "" {
		cfg.Tool = "helgrind-deadlock"
	}
	return &Detector{
		cfg:      cfg,
		col:      col,
		held:     make(map[trace.ThreadID][]trace.LockID),
		edges:    make(map[trace.LockID]map[trace.LockID]edgeInfo),
		reported: make(map[string]bool),
	}
}

// ToolName implements trace.Sink.
func (d *Detector) ToolName() string { return d.cfg.Tool }

// Cycles returns the number of distinct lock-order cycles reported.
func (d *Detector) Cycles() int { return d.cycles }

// Acquire implements trace.Sink.
func (d *Detector) Acquire(t trace.ThreadID, l trace.LockID, _ trace.LockKind, stack trace.StackID) {
	d.addEdges(t, l, stack)
	d.held[t] = append(d.held[t], l)
}

// Contended implements trace.Sink: a blocked attempt establishes the same
// ordering as a successful acquisition — and in an actual deadlock it is the
// only signal there will ever be.
func (d *Detector) Contended(t trace.ThreadID, l trace.LockID, stack trace.StackID) {
	d.addEdges(t, l, stack)
}

func (d *Detector) addEdges(t trace.ThreadID, l trace.LockID, stack trace.StackID) {
	for _, prev := range d.held[t] {
		if prev == l {
			continue
		}
		m, ok := d.edges[prev]
		if !ok {
			m = make(map[trace.LockID]edgeInfo)
			d.edges[prev] = m
		}
		if _, seen := m[l]; !seen {
			m[l] = edgeInfo{stack: stack, thread: t}
			d.checkCycle(prev, l, t, stack)
		}
	}
}

// Release implements trace.Sink.
func (d *Detector) Release(t trace.ThreadID, l trace.LockID, _ trace.LockKind, _ trace.StackID) {
	held := d.held[t]
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == l {
			d.held[t] = append(held[:i], held[i+1:]...)
			return
		}
	}
}

// checkCycle looks for a path to -> ... -> from, which together with the new
// edge from->to forms a cycle, and reports it once per distinct cycle.
func (d *Detector) checkCycle(from, to trace.LockID, t trace.ThreadID, stack trace.StackID) {
	path := d.cyclePath(to, from)
	if path == nil {
		return
	}
	key := cycleKey(path)
	if d.reported[key] {
		return
	}
	d.reported[key] = true
	d.cycles++
	names := make([]string, len(path))
	for i, l := range path {
		names[i] = fmt.Sprintf("L%d", l)
	}
	d.col.Add(report.Warning{
		Tool:   d.cfg.Tool,
		Kind:   report.KindDeadlock,
		Thread: t,
		Stack:  stack,
		State:  fmt.Sprintf("lock order cycle: %s -> L%d", strings.Join(names, " -> "), to),
	})
}

var _ trace.Sink = (*Detector)(nil)

// cyclePath finds a path from src to dst in the edge graph (DFS), returning
// nil when none exists.
func (d *Detector) cyclePath(src, dst trace.LockID) []trace.LockID {
	visited := map[trace.LockID]bool{}
	var path []trace.LockID
	var dfs func(cur trace.LockID) bool
	dfs = func(cur trace.LockID) bool {
		if cur == dst {
			path = append(path, cur)
			return true
		}
		if visited[cur] {
			return false
		}
		visited[cur] = true
		next := make([]trace.LockID, 0, len(d.edges[cur]))
		for n := range d.edges[cur] {
			next = append(next, n)
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		for _, n := range next {
			if dfs(n) {
				path = append([]trace.LockID{cur}, path...)
				return true
			}
		}
		return false
	}
	if dfs(src) {
		return path
	}
	return nil
}

func cycleKey(path []trace.LockID) string {
	// Normalise rotation so the same cycle reported from different edges
	// deduplicates: rotate the smallest lock ID to the front.
	if len(path) == 0 {
		return ""
	}
	min := 0
	for i, l := range path {
		if l < path[min] {
			min = i
		}
	}
	rot := append(append([]trace.LockID{}, path[min:]...), path[:min]...)
	parts := make([]string, len(rot))
	for i, l := range rot {
		parts[i] = fmt.Sprint(l)
	}
	return strings.Join(parts, "->")
}
