// Package harness ties the test bed together: it runs SIPp test cases
// against the SIP server under a chosen detector configuration, classifies
// every reported location into the paper's warning families (ground truth is
// known because the bugs are seeded) and regenerates the paper's tables and
// figures. Every analysed run goes through core.Run, or for the offline
// table through one engine.Sequential replay, the engine the trace daemon
// runs.
package harness

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cppmodel"
	"repro/internal/engine"
	"repro/internal/libc"
	"repro/internal/lockset"
	"repro/internal/report"
	"repro/internal/sip"
	"repro/internal/sipp"
	"repro/internal/suppress"
	"repro/internal/trace"
	"repro/internal/tracelog"
	"repro/internal/vm"
)

// DetectorConfig names one column of Fig. 6.
type DetectorConfig struct {
	Name string
	Cfg  lockset.Config
	// AnnotateDeletes routes the build through the instrumentation pass
	// (must accompany Cfg.Destruct, as in the paper's third run).
	AnnotateDeletes bool
}

// PaperConfigs returns the three detector configurations of Fig. 5/6.
func PaperConfigs() []DetectorConfig {
	return []DetectorConfig{
		{Name: "Original", Cfg: lockset.ConfigOriginal()},
		{Name: "HWLC", Cfg: lockset.ConfigHWLC()},
		{Name: "HWLC+DR", Cfg: lockset.ConfigHWLCDR(), AnnotateDeletes: true},
	}
}

// Family classifies a warning site.
type Family string

// Warning families. The fp-* families are the paper's false positives; the
// bug-* families are the seeded §4.1 true positives; benign is the §4.1
// "just a benign race" category.
const (
	FamBusLock   Family = "fp-buslock"
	FamDtor      Family = "fp-destructor"
	FamAllocator Family = "fp-allocator"
	FamOwnership Family = "fp-ownership"
	FamInit      Family = "bug-init-order"
	FamShutdown  Family = "bug-shutdown"
	FamRefReturn Family = "bug-ref-return"
	FamLibc      Family = "bug-libc-static"
	FamMonitor   Family = "bug-dl-monitor"
	FamGauge     Family = "bug-gauge"
	FamTimer     Family = "bug-timer"
	FamBenign    Family = "benign"
	FamOther     Family = "other"
)

// TrueBugFamilies lists the families corresponding to real defects.
var TrueBugFamilies = []Family{FamInit, FamShutdown, FamRefReturn, FamLibc, FamMonitor, FamGauge, FamTimer}

// Result is the outcome of one test-case run under one configuration.
type Result struct {
	Case      string
	Detector  string
	Seed      int64
	Locations int
	ByFamily  map[Family]int
	Handled   int
	Steps     int64
	Collector *report.Collector
}

// FalsePositives counts locations in fp-* families.
func (r *Result) FalsePositives() int {
	return r.ByFamily[FamBusLock] + r.ByFamily[FamDtor] + r.ByFamily[FamAllocator] + r.ByFamily[FamOwnership]
}

// TruePositives counts locations in bug-* families.
func (r *Result) TruePositives() int {
	n := 0
	for _, f := range TrueBugFamilies {
		n += r.ByFamily[f]
	}
	return n
}

// RunOptions configures a harness run.
type RunOptions struct {
	Seed    int64
	Pattern sip.Pattern
	Bugs    sip.Bugs
	// Quantum is the VM scheduling quantum (1 = maximal interleaving).
	Quantum int
	// ForceNew matches the paper's setup: GLIBCPP_FORCE_NEW "must be done
	// prior to calling Helgrind" — allocator FPs are excluded from Fig. 6.
	ForceNew bool
	// Suppressions applies a suppression file (the §2.3.1 manual
	// workflow); empty means none.
	Suppressions string
}

// DefaultRunOptions mirrors the paper's experimental environment.
func DefaultRunOptions() RunOptions {
	return RunOptions{
		Seed:     1,
		Pattern:  sip.ThreadPerRequest,
		Bugs:     sip.PaperBugs(),
		Quantum:  3,
		ForceNew: true,
	}
}

// HelgrindSuppressions is the manual alternative to the paper's
// improvements (§2.3.1): suppression rules for the libstdc++ string
// reference counter and for compiler-generated destructors. The paper's
// point is that the automatic improvements subsume this hand-maintained
// list.
const HelgrindSuppressions = `
# COW string reference counting (the Fig. 8/9 family)
{
   libstdc++-cow-string-grab
   Helgrind:Race
   fun:std::string::_Rep::_M_grab*
   ...
}
{
   libstdc++-cow-string-dispose
   Helgrind:Race
   fun:std::string::_Rep::_M_dispose*
   ...
}
{
   libstdc++-cow-string-mutate
   Helgrind:Race
   fun:std::string::_M_mutate*
   ...
}
# Compiler-generated destructor vptr rewrites (the §4.2.1 family)
{
   cxx-destructor-chain
   Helgrind:Race
   fun:*::~*
   ...
}
`

// SIPGuest returns the guest program of every SIP experiment: a fresh C++
// runtime and libc, the SIP server opt configures, test case tc driven
// against it, then an orderly shutdown. annotateDeletes builds the guest
// through the delete-annotation pass (the paper's third run). handled reports
// the requests the server handled once the guest has run.
func SIPGuest(tc sipp.TestCase, opt RunOptions, annotateDeletes bool) (guest func(*vm.Thread), handled func() int) {
	var srv *sip.Server
	guest = func(main *vm.Thread) {
		rt := cppmodel.NewRuntime(cppmodel.Options{AnnotateDeletes: annotateDeletes, ForceNew: opt.ForceNew})
		srv = sip.NewServer(main.VM(), rt, libc.New(main), sip.Config{Pattern: opt.Pattern, Bugs: opt.Bugs})
		srv.Start(main)
		sink := tc.Drive(main, srv, srv.Config().Domains)
		srv.Stop(main)
		main.Join(sink)
	}
	return guest, func() int { return srv.Handled() }
}

// RecordCase runs test case tc once with only the trace recorder attached
// and returns the machine (for stack/block resolution) plus the encoded
// binary log.
func RecordCase(tc sipp.TestCase, opt RunOptions, annotateDeletes bool) (*vm.VM, []byte, error) {
	guest, _ := SIPGuest(tc, opt, annotateDeletes)
	return record(vm.Options{Seed: opt.Seed, Quantum: opt.Quantum}, guest)
}

// record runs guest on a fresh machine with only the trace recorder
// attached and returns the machine and the encoded log.
func record(o vm.Options, guest func(*vm.Thread)) (*vm.VM, []byte, error) {
	var buf bytes.Buffer
	rec := tracelog.NewRecorder(&buf)
	v := vm.New(o)
	v.AddTool(rec)
	if err := v.Run(guest); err != nil {
		return nil, nil, err
	}
	if err := rec.Flush(); err != nil {
		return nil, nil, err
	}
	return v, buf.Bytes(), nil
}

// RunCase executes one test case under one detector configuration.
func RunCase(tc sipp.TestCase, det DetectorConfig, opt RunOptions) (*Result, error) {
	guest, handled := SIPGuest(tc, opt, det.AnnotateDeletes)
	run, err := core.Run(core.Options{
		Tools:        []trace.ToolSpec{lockset.Spec(det.Cfg)},
		Suppressions: opt.Suppressions,
		Seed:         opt.Seed,
		Quantum:      opt.Quantum,
	}, guest)
	if err == nil {
		err = run.Err
	}
	if err != nil {
		return nil, fmt.Errorf("harness: case %s under %s: %w", tc.ID, det.Name, err)
	}
	res := &Result{
		Case:      tc.ID,
		Detector:  det.Name,
		Seed:      opt.Seed,
		Locations: run.Locations(),
		ByFamily:  make(map[Family]int),
		Handled:   handled(),
		Steps:     run.Steps,
		Collector: run.Collector,
	}
	for _, w := range run.Collector.Sites() {
		res.ByFamily[Classify(w, run.VM)]++
	}
	return res, nil
}

// Classify maps one warning site to its family using the allocation tag and
// the recorded stack — possible because every seeded behaviour leaves a
// distinctive trail.
func Classify(w *report.Warning, res trace.Resolver) Family {
	tag := ""
	if blk := res.BlockInfo(w.Block); blk != nil {
		tag = blk.Tag
	}
	frames := res.Stack(w.Stack)
	has := func(sub string) bool {
		for _, f := range frames {
			if strings.Contains(f.Fn, sub) {
				return true
			}
		}
		return false
	}
	switch {
	case tag == "monitor-stats" || has("DeadlockMonitor::"):
		return FamMonitor
	case tag == "routes-ready":
		return FamInit
	case tag == "shutdown-flag":
		return FamShutdown
	case has("localtime") || has("asctime") || has("ctime") || has("strtok"):
		return FamLibc
	case tag == "domain-map" || tag == "obj:DomainData" || has("getDomainData") || has("ServerModulesManagerImpl::route"):
		return FamRefReturn
	case tag == "gauge-active-calls":
		return FamGauge
	case has("RetransmitTimer::") && !has("::~"):
		return FamTimer
	case tag == "benign-hitcounter":
		return FamBenign
	case tag == "obj:StatsRegistry" && (has("StatsFlusher::") || has("Server::stop") || has("StatsRegistry::~")):
		return FamShutdown
	case tag == "string-rep" && w.Off < 4:
		// Offset 0 is the reference counter: the bus-lock family. This must
		// outrank the destructor family: a refcount decrement inside
		// ~string is still a bus-lock artefact.
		return FamBusLock
	case has("::~") || has("ca_deletor_single"):
		return FamDtor
	case tag == "packet-buffer":
		return FamOwnership
	case tag == "string-rep":
		// Content races on strings reached through the domain data are part
		// of the Fig. 7 bug; other content races are real findings too.
		if has("route") || has("DomainData") {
			return FamRefReturn
		}
		return FamOther
	default:
		return FamOther
	}
}

// Figure6Row is one row of the Fig. 6 table.
type Figure6Row struct {
	Case     string
	Original int
	HWLC     int
	HWLCDR   int
}

// Figure6 runs all eight test cases under the three configurations.
func Figure6(opt RunOptions) ([]Figure6Row, []*Result, error) {
	var rows []Figure6Row
	var all []*Result
	for _, tc := range sipp.Cases() {
		locs := make(map[string]int)
		for _, det := range PaperConfigs() {
			res, err := RunCase(tc, det, opt)
			if err != nil {
				return nil, nil, err
			}
			all = append(all, res)
			locs[det.Name] = res.Locations
		}
		rows = append(rows, figure6Row(tc.ID, locs))
	}
	return rows, all, nil
}

// Figure6Offline is Figure6 as post-mortem analysis (§2.2): each test case
// runs once, built with delete annotations and with only the trace recorder
// attached, and one replay of its log feeds the three configurations as
// distinctly named lock-set tools. Original and HWLC therefore analyse the
// event stream HWLC+DR sees, not the one their own live runs produce.
func Figure6Offline(opt RunOptions) ([]Figure6Row, error) {
	sup, err := suppress.ParseString(opt.Suppressions)
	if err != nil {
		return nil, fmt.Errorf("harness: bad suppressions: %w", err)
	}
	var specs []trace.ToolSpec
	for _, det := range PaperConfigs() {
		cfg := det.Cfg
		cfg.Tool = det.Name
		specs = append(specs, lockset.Spec(cfg))
	}
	var rows []Figure6Row
	for _, tc := range sipp.Cases() {
		v, log, err := RecordCase(tc, opt, true)
		if err != nil {
			return nil, fmt.Errorf("harness: recording case %s: %w", tc.ID, err)
		}
		seq, err := engine.NewSequential(engine.Options{Tools: specs, Resolver: v, Suppressor: sup})
		if err != nil {
			return nil, err
		}
		var col *report.Collector
		if _, err = seq.ReplayLog(bytes.NewReader(log)); err == nil {
			col, err = seq.Close()
		}
		if err != nil {
			return nil, fmt.Errorf("harness: replaying case %s: %w", tc.ID, err)
		}
		rows = append(rows, figure6Row(tc.ID, col.LocationsByTool()))
	}
	return rows, nil
}

// figure6Row builds a table row from locations keyed by configuration name.
func figure6Row(id string, locs map[string]int) Figure6Row {
	return Figure6Row{Case: id, Original: locs["Original"], HWLC: locs["HWLC"], HWLCDR: locs["HWLC+DR"]}
}

// FormatFigure6 renders the rows in the paper's table format.
func FormatFigure6(rows []Figure6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %8s %9s %12s\n", "Test case", "Original", "HWLC", "HWLC+DR", "removed")
	for _, r := range rows {
		rem := "-"
		if r.Original > 0 {
			rem = fmt.Sprintf("%.0f%%", 100*float64(r.Original-r.HWLCDR)/float64(r.Original))
		}
		fmt.Fprintf(&b, "%-10s %10d %8d %9d %12s\n", r.Case, r.Original, r.HWLC, r.HWLCDR, rem)
	}
	return b.String()
}

// ReductionRange returns the smallest and largest per-case percentage of
// warnings removed going from Original to HWLC+DR — the paper's headline
// "65% to 81%" (§1).
func ReductionRange(rows []Figure6Row) (min, max float64) {
	first := true
	for _, r := range rows {
		if r.Original == 0 {
			continue
		}
		red := 100 * float64(r.Original-r.HWLCDR) / float64(r.Original)
		if first || red < min {
			min = red
		}
		if first || red > max {
			max = red
		}
		first = false
	}
	return min, max
}

// Decomposition is the Fig. 5 stacked-bar view of one test case: how many
// Original-configuration locations belong to each removable family, and how
// many remain.
type Decomposition struct {
	Case       string
	BusLock    int // removed by HWLC
	Destructor int // removed by DR
	Remaining  int // true races + benign + other
	TotalOrig  int
}

// Figure5 computes the decomposition for every test case from the Original
// run's classification.
func Figure5(opt RunOptions) ([]Decomposition, error) {
	var out []Decomposition
	for _, tc := range sipp.Cases() {
		res, err := RunCase(tc, PaperConfigs()[0], opt)
		if err != nil {
			return nil, err
		}
		d := Decomposition{
			Case:       tc.ID,
			BusLock:    res.ByFamily[FamBusLock],
			Destructor: res.ByFamily[FamDtor],
			TotalOrig:  res.Locations,
		}
		d.Remaining = d.TotalOrig - d.BusLock - d.Destructor
		out = append(out, d)
	}
	return out, nil
}

// FormatFigure5 renders the decomposition as the stacked-bar data table.
func FormatFigure5(rows []Decomposition) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %12s %12s %8s\n", "Test case", "FP(buslock)", "FP(dtor)", "remaining", "total")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12d %12d %12d %8d\n", r.Case, r.BusLock, r.Destructor, r.Remaining, r.TotalOrig)
	}
	return b.String()
}

// SweepResult aggregates one experiment across scheduler seeds — the
// paper's §2.3.2 advice made executable: "Repeated tests with different test
// data (resulting in different interleavings) could help find such
// data-races, if they exist."
type SweepResult struct {
	Seeds     int
	Hits      map[Family]int // seeds in which the family was reported
	Locations []int          // per-seed location counts
}

// DetectionRate returns the fraction of seeds in which the family appeared.
func (s *SweepResult) DetectionRate(f Family) float64 {
	if s.Seeds == 0 {
		return 0
	}
	return float64(s.Hits[f]) / float64(s.Seeds)
}

// SeedSweep runs one test case under one configuration across n seeds.
func SeedSweep(tc sipp.TestCase, det DetectorConfig, base RunOptions, n int) (*SweepResult, error) {
	out := &SweepResult{Seeds: n, Hits: make(map[Family]int)}
	for seed := 0; seed < n; seed++ {
		opt := base
		opt.Seed = int64(seed + 1)
		res, err := RunCase(tc, det, opt)
		if err != nil {
			return nil, err
		}
		out.Locations = append(out.Locations, res.Locations)
		for fam, cnt := range res.ByFamily {
			if cnt > 0 {
				out.Hits[fam]++
			}
		}
	}
	return out, nil
}
