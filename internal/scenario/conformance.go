package scenario

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/tracelog"
	"repro/internal/vm"
)

// Canonical report names of the six registered tools (the Spec defaults of
// the detector packages). Expectations are phrased against these.
const (
	ToolLockset   = "helgrind"
	ToolDJIT      = "djit"
	ToolHybrid    = "hybrid"
	ToolDeadlock  = "helgrind-deadlock"
	ToolMemcheck  = "memcheck"
	ToolHighLevel = "highlevel"
)

// AllTools returns the full six-tool registry the conformance suite runs,
// core.Options{}.ParseTools("all") as traced and bench run it: the paper's
// strongest lock-set configuration (HWLC+DR), the DJIT happens-before
// baseline, the hybrid, and the three auxiliary checkers. Every call returns
// fresh specs; instances never share state.
func AllTools() []trace.ToolSpec {
	specs, _ := core.Options{}.ParseTools("all") // "all" always parses
	return specs
}

// Record executes the scenario variant once with only the trace recorder
// attached and returns the machine (for stack/block resolution) plus the
// encoded binary log — the offline half of every pipeline shape, and the
// bytes cmd/scenariogen writes into the golden corpus.
func Record(s *Scenario, buggy bool, schedSeed int64) (*vm.VM, []byte, error) {
	var buf bytes.Buffer
	rec := tracelog.NewRecorder(&buf)
	v := vm.New(vm.Options{Seed: schedSeed})
	v.AddTool(rec)
	if err := v.Run(s.Body(buggy)); err != nil {
		return nil, nil, fmt.Errorf("scenario %s (sched %d): guest: %w", s.Name(), schedSeed, err)
	}
	if err := rec.Flush(); err != nil {
		return nil, nil, err
	}
	return v, buf.Bytes(), nil
}

// RunLive executes the scenario variant live under the full registry through
// core.Run, the pipeline consuming the VM stream.
func RunLive(s *Scenario, buggy bool, schedSeed int64) (*core.Result, error) {
	res, err := core.Run(core.Options{Tools: AllTools(), Seed: schedSeed}, s.Body(buggy))
	if err != nil {
		return nil, err
	}
	if res.Err != nil {
		return nil, fmt.Errorf("scenario %s (sched %d): guest: %w", s.Name(), schedSeed, res.Err)
	}
	return res, nil
}

// RunOffline replays a recorded log through the full registry.
func RunOffline(res trace.Resolver, log []byte) (*report.Collector, error) {
	pipe, err := engine.NewSequential(engine.Options{Tools: AllTools(), Resolver: res})
	if err != nil {
		return nil, err
	}
	if _, err := pipe.ReplayLog(bytes.NewReader(log)); err != nil {
		pipe.Close()
		return nil, err
	}
	return pipe.Close()
}

// MatrixResult is the outcome of one scenario variant run through every
// pipeline shape at one scheduler seed.
type MatrixResult struct {
	// Formats maps shape name ("live", "offline") to the fully rendered
	// report. All values must be byte-identical.
	Formats map[string]string
	// Order lists the shape names in run order (Formats is a map).
	Order []string
	// Canonical is the collector of the first live run; Resolver resolves
	// its stacks and blocks.
	Canonical *report.Collector
	Resolver  trace.Resolver
}

// Mismatch compares all reports and returns "" when they are byte-identical,
// otherwise a description naming the first differing pair.
func (m *MatrixResult) Mismatch() string {
	if len(m.Order) == 0 {
		return ""
	}
	ref := m.Order[0]
	for _, name := range m.Order[1:] {
		if m.Formats[name] != m.Formats[ref] {
			return fmt.Sprintf("report mismatch between %s and %s:\n--- %s ---\n%s\n--- %s ---\n%s",
				ref, name, ref, m.Formats[ref], name, m.Formats[name])
		}
	}
	return ""
}

// RunMatrix runs one scenario variant through {live, offline} under the
// full registry at one scheduler seed.
func RunMatrix(s *Scenario, buggy bool, schedSeed int64) (*MatrixResult, error) {
	res, err := RunLive(s, buggy, schedSeed)
	if err != nil {
		return nil, err
	}
	recVM, log, err := Record(s, buggy, schedSeed)
	if err != nil {
		return nil, err
	}
	col, err := RunOffline(recVM, log)
	if err != nil {
		return nil, err
	}
	return &MatrixResult{
		Formats:   map[string]string{"live": res.Report(), "offline": col.Format()},
		Order:     []string{"live", "offline"},
		Canonical: res.Collector,
		Resolver:  res.VM,
	}, nil
}

// CountEvents decodes a log just to count its events.
func CountEvents(log []byte) (int64, error) {
	return tracelog.Replay(bytes.NewReader(log), trace.BaseSink{})
}

// CheckBuggy verifies the planted-bug contract against a buggy-variant
// report: every expected warning present, every differential absence
// honoured, and every reported site attributable to a planted bug (the
// benign workload must stay clean even in the buggy variant). It returns a
// list of human-readable failures, empty on success.
func CheckBuggy(col *report.Collector, res trace.Resolver, s *Scenario) []string {
	var fails []string
	sites := col.Sites()
	tagOf := func(w *report.Warning) string {
		if blk := res.BlockInfo(w.Block); blk != nil {
			return blk.Tag
		}
		return ""
	}

	for _, b := range s.Bugs {
		for _, e := range b.Expected() {
			found := false
			for _, w := range sites {
				if w.Tool == e.Tool && w.Kind == e.Kind && (e.BlockTag == "" || tagOf(w) == e.BlockTag) {
					found = true
					break
				}
			}
			if !found {
				fails = append(fails, fmt.Sprintf("false negative: %s not reported for planted bug %s", e, b.Tag))
			}
		}
		for _, e := range b.Absent() {
			for _, w := range sites {
				if w.Tool == e.Tool && w.Kind == e.Kind && tagOf(w) == e.BlockTag {
					fails = append(fails, fmt.Sprintf("differential violation: %s reported, but bug %s must be invisible to %s", e, b.Tag, e.Tool))
					break
				}
			}
		}
	}

	bugTags := make(map[string]bool, len(s.Bugs))
	for _, b := range s.Bugs {
		bugTags[b.Tag] = true
	}
	hasLockOrder := s.HasKind(BugLockOrder)
	for _, w := range sites {
		tag := tagOf(w)
		if bugTags[tag] {
			continue
		}
		if tag == "" && w.Kind == trace.KindDeadlock && hasLockOrder {
			continue
		}
		fails = append(fails, fmt.Sprintf("stray warning %s/%s on tag %q: not attributable to any planted bug", w.Tool, w.Kind.Category(), tag))
	}
	return fails
}

// CheckControl verifies the control-variant contract: no warnings at all.
func CheckControl(col *report.Collector) []string {
	if col.Locations() == 0 {
		return nil
	}
	var fails []string
	for _, w := range col.Sites() {
		fails = append(fails, fmt.Sprintf("control variant warning: %s/%s (state %q)", w.Tool, w.Kind.Category(), w.State))
	}
	return fails
}

// FoundByFamily tallies, per planted-bug family, how many of the bug's
// expected warnings were found in the report — the expected-vs-found summary
// cmd/scenariogen prints and CHANGES.md records.
type FamilyTally struct {
	Family   string
	Expected int
	Found    int
}

// TallyFamilies computes the per-family expected-vs-found counts for one
// buggy-variant report.
func TallyFamilies(col *report.Collector, res trace.Resolver, s *Scenario) []FamilyTally {
	sites := col.Sites()
	tagOf := func(w *report.Warning) string {
		if blk := res.BlockInfo(w.Block); blk != nil {
			return blk.Tag
		}
		return ""
	}
	byFam := make(map[string]*FamilyTally)
	var order []string
	for _, b := range s.Bugs {
		fam := b.Kind.Family()
		t, ok := byFam[fam]
		if !ok {
			t = &FamilyTally{Family: fam}
			byFam[fam] = t
			order = append(order, fam)
		}
		for _, e := range b.Expected() {
			t.Expected++
			for _, w := range sites {
				if w.Tool == e.Tool && w.Kind == e.Kind && (e.BlockTag == "" || tagOf(w) == e.BlockTag) {
					t.Found++
					break
				}
			}
		}
	}
	out := make([]FamilyTally, 0, len(order))
	for _, fam := range order {
		out = append(out, *byFam[fam])
	}
	return out
}
