package harness

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/sip"
	"repro/internal/sipp"
	"repro/internal/trace"
	"repro/internal/vm"
)

func TestRunCaseSmoke(t *testing.T) {
	tc, ok := sipp.CaseByID("T2")
	if !ok {
		t.Fatal("T2 missing")
	}
	res, err := RunCase(tc, PaperConfigs()[0], DefaultRunOptions())
	if err != nil {
		t.Fatalf("RunCase: %v", err)
	}
	if res.Handled != tc.MessageCount() {
		t.Errorf("handled = %d, want %d", res.Handled, tc.MessageCount())
	}
	if res.Locations == 0 {
		t.Error("Original configuration reported zero locations; expected FPs and seeded bugs")
	}
	t.Logf("T2/Original: %d locations, families %v, steps %d", res.Locations, res.ByFamily, res.Steps)
}

func TestFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full table in -short mode")
	}
	rows, all, err := Figure6(DefaultRunOptions())
	if err != nil {
		t.Fatalf("Figure6: %v", err)
	}
	t.Logf("\n%s", FormatFigure6(rows))
	for _, r := range rows {
		if !(r.Original >= r.HWLC && r.HWLC >= r.HWLCDR) {
			t.Errorf("%s: ordering violated: %d >= %d >= %d", r.Case, r.Original, r.HWLC, r.HWLCDR)
		}
		if r.HWLCDR*2 > r.HWLC {
			t.Errorf("%s: DR should cut more than half of HWLC (%d -> %d)", r.Case, r.HWLC, r.HWLCDR)
		}
	}
	lo, hi := ReductionRange(rows)
	t.Logf("reduction range: %.0f%% .. %.0f%% (paper: 65%%..81%%)", lo, hi)
	if lo < 55 || hi > 90 {
		t.Errorf("reduction range %.0f..%.0f too far from the paper's 65..81", lo, hi)
	}
	// True bugs must survive every configuration.
	for _, res := range all {
		if res.Detector == "HWLC+DR" && res.TruePositives() == 0 {
			t.Errorf("%s under HWLC+DR lost all true positives: %v", res.Case, res.ByFamily)
		}
	}
}

// TestFigure6OfflineVsLive pins both Fig. 6 tables. The offline table
// records each case once, built with delete annotations, and replays that one
// log into all three configurations; the live runs build Original and HWLC
// without the annotations, so those two columns analyse a different event
// stream. That is the measured cost of §2.2's offline claim that every
// configuration sees "the SAME interleaving": the annotated build executes
// more guest operations (T1: 10,796 steps against 10,508), so the scheduler
// interleaves it differently. The tables differ in T1 (Original/HWLC 33/19
// live, 32/18 offline), T3 (53/32 live, 54/33 offline) and T8 (Original 95
// live, 94 offline); the HWLC+DR column is identical in every row.
func TestFigure6OfflineVsLive(t *testing.T) {
	if testing.Short() {
		t.Skip("two full tables in -short mode")
	}
	live := []Figure6Row{
		{"T1", 33, 19, 8}, {"T2", 54, 33, 16}, {"T3", 53, 32, 16}, {"T4", 56, 33, 16},
		{"T5", 80, 43, 17}, {"T6", 97, 62, 18}, {"T7", 60, 34, 17}, {"T8", 95, 60, 18},
	}
	offline := []Figure6Row{
		{"T1", 32, 18, 8}, {"T2", 54, 33, 16}, {"T3", 54, 33, 16}, {"T4", 56, 33, 16},
		{"T5", 80, 43, 17}, {"T6", 97, 62, 18}, {"T7", 60, 34, 17}, {"T8", 94, 60, 18},
	}
	gotLive, _, err := Figure6(DefaultRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	gotOffline, err := Figure6Offline(DefaultRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotLive, live) {
		t.Errorf("live table:\n%swant:\n%s", FormatFigure6(gotLive), FormatFigure6(live))
	}
	if !slices.Equal(gotOffline, offline) {
		t.Errorf("offline table:\n%swant:\n%s", FormatFigure6(gotOffline), FormatFigure6(offline))
	}
}

func TestClassifierCoversFamilies(t *testing.T) {
	tc, _ := sipp.CaseByID("T5")
	res, err := RunCase(tc, PaperConfigs()[0], DefaultRunOptions())
	if err != nil {
		t.Fatalf("RunCase: %v", err)
	}
	for _, fam := range []Family{FamBusLock, FamDtor} {
		if res.ByFamily[fam] == 0 {
			t.Errorf("family %s missing from T5/Original: %v", fam, res.ByFamily)
		}
	}
	if res.ByFamily[FamOther] > res.Locations/3 {
		t.Errorf("too many unclassified locations (%d of %d): classifier too weak",
			res.ByFamily[FamOther], res.Locations)
	}
}

func TestFamilyInvariants(t *testing.T) {
	// The improvements must remove exactly their own false-positive family
	// and leave the true bugs intact.
	tc, _ := sipp.CaseByID("T5")
	opt := DefaultRunOptions()
	results := map[string]*Result{}
	for _, det := range PaperConfigs() {
		res, err := RunCase(tc, det, opt)
		if err != nil {
			t.Fatalf("RunCase(%s): %v", det.Name, err)
		}
		results[det.Name] = res
	}
	if results["Original"].ByFamily[FamBusLock] == 0 {
		t.Error("Original must report the bus-lock family")
	}
	if results["HWLC"].ByFamily[FamBusLock] != 0 {
		t.Errorf("HWLC must eliminate the bus-lock family, got %d", results["HWLC"].ByFamily[FamBusLock])
	}
	if results["HWLC"].ByFamily[FamDtor] == 0 {
		t.Error("HWLC alone must keep the destructor family")
	}
	if results["HWLC+DR"].ByFamily[FamDtor] != 0 {
		t.Errorf("HWLC+DR must eliminate the destructor family, got %d", results["HWLC+DR"].ByFamily[FamDtor])
	}
	// The seeded true bugs survive the full improvement stack.
	for _, fam := range []Family{FamInit, FamShutdown, FamRefReturn, FamLibc, FamGauge} {
		if results["HWLC+DR"].ByFamily[fam] == 0 {
			t.Errorf("true bug family %s lost under HWLC+DR: %v", fam, results["HWLC+DR"].ByFamily)
		}
	}
}

func TestThreadPoolOwnershipFamily(t *testing.T) {
	// E8 / Fig. 11: the pool pattern adds ownership-transfer FPs that the
	// per-request pattern does not have; the queue-edge extension removes
	// them again.
	tc, _ := sipp.CaseByID("T4")
	opt := DefaultRunOptions()
	opt.Pattern = sip.ThreadPool

	det := PaperConfigs()[2] // HWLC+DR
	res, err := RunCase(tc, det, opt)
	if err != nil {
		t.Fatalf("RunCase pool: %v", err)
	}
	if res.ByFamily[FamOwnership] == 0 {
		t.Errorf("thread-pool run should show ownership-transfer FPs: %v", res.ByFamily)
	}

	ext := det
	ext.Cfg.Mask = trace.MaskFull
	resExt, err := RunCase(tc, ext, opt)
	if err != nil {
		t.Fatalf("RunCase pool+ext: %v", err)
	}
	if resExt.ByFamily[FamOwnership] != 0 {
		t.Errorf("queue-edge extension should remove ownership FPs, got %v", resExt.ByFamily)
	}

	perReq := opt
	perReq.Pattern = sip.ThreadPerRequest
	resReq, err := RunCase(tc, det, perReq)
	if err != nil {
		t.Fatalf("RunCase per-request: %v", err)
	}
	if resReq.ByFamily[FamOwnership] != 0 {
		t.Errorf("thread-per-request must not show ownership FPs (Fig. 10), got %v", resReq.ByFamily)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	tc, _ := sipp.CaseByID("T3")
	opt := DefaultRunOptions()
	a, err := RunCase(tc, PaperConfigs()[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCase(tc, PaperConfigs()[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Locations != b.Locations || a.Steps != b.Steps {
		t.Errorf("same seed differs: %d/%d locations, %d/%d steps",
			a.Locations, b.Locations, a.Steps, b.Steps)
	}
}

func TestSeedSensitivityBounded(t *testing.T) {
	// Different schedules may move a few locations (the §4.3 effect), but
	// the family structure must be stable.
	tc, _ := sipp.CaseByID("T2")
	var locs []int
	for seed := int64(1); seed <= 4; seed++ {
		opt := DefaultRunOptions()
		opt.Seed = seed
		res, err := RunCase(tc, PaperConfigs()[2], opt)
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, res.Locations)
		if res.ByFamily[FamDtor] != 0 {
			t.Errorf("seed %d: DR family leaked: %v", seed, res.ByFamily)
		}
	}
	min, max := locs[0], locs[0]
	for _, l := range locs {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if max-min > min {
		t.Errorf("location counts vary too wildly across seeds: %v", locs)
	}
}

func TestOverheadShape(t *testing.T) {
	// §4.5: analysis on top of the VM costs a factor comparable to the
	// paper's 20-30/8-10 ≈ 2.5-3x. The dense-state detectors brought the
	// analysis cost down to the same order as the bare VM's own dispatch, so
	// the ratio of two ~20 ms runs on a shared vCPU is noise-dominated: it is
	// logged (best of several runs per mode) and held only to a loose upper
	// sanity bound. What is asserted is that both modes ran the same guest.
	w := PerfWorkload{Threads: 2, Iters: 800, Slots: 16, Seed: 1}
	bestOf := func(m PerfMode) PerfResult {
		var best PerfResult
		for i := 0; i < 3; i++ {
			res, err := w.RunVM(m)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 || res.Duration < best.Duration {
				best = res
			}
		}
		return best
	}
	bare := bestOf(PerfVM)
	full := bestOf(PerfVMLockset)
	ratio := float64(full.Duration) / float64(bare.Duration)
	t.Logf("analysis overhead over bare VM: %.2fx (paper ~2.5-3x)", ratio)
	if ratio > 30 {
		t.Errorf("analysis overhead %.2fx implausibly high", ratio)
	}
	if bare.Steps != full.Steps {
		t.Errorf("same workload must execute the same guest steps: %d vs %d", bare.Steps, full.Steps)
	}
}

func TestSuppressionWorkflowApproximatesImprovements(t *testing.T) {
	// E14: the §2.3.1 manual alternative — Original detector plus a
	// hand-written suppression file — should approximate what the automatic
	// improvements achieve, which is exactly why the paper considers the
	// automatic path superior (no hand-maintained list, works for code
	// without symbols).
	tc, _ := sipp.CaseByID("T2")
	opt := DefaultRunOptions()

	plain, err := RunCase(tc, PaperConfigs()[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	optSup := opt
	optSup.Suppressions = HelgrindSuppressions
	suppressed, err := RunCase(tc, PaperConfigs()[0], optSup)
	if err != nil {
		t.Fatal(err)
	}
	improved, err := RunCase(tc, PaperConfigs()[2], opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("T2: original=%d, original+suppressions=%d, HWLC+DR=%d",
		plain.Locations, suppressed.Locations, improved.Locations)
	if suppressed.Locations >= plain.Locations {
		t.Error("suppression file removed nothing")
	}
	if suppressed.Collector.SuppressedSites() == 0 {
		t.Error("no sites recorded as suppressed")
	}
	// The manual list must not beat the improvements by much (it targets
	// the same two families), and true bugs must survive it.
	if suppressed.TruePositives() == 0 {
		t.Errorf("suppressions ate the true positives: %v", suppressed.ByFamily)
	}
	diff := suppressed.Locations - improved.Locations
	if diff < -4 || diff > 12 {
		t.Errorf("manual workflow (%d) too far from automatic improvements (%d)",
			suppressed.Locations, improved.Locations)
	}
}

func TestSeedSweepFindsStableAndFlakyBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	tc, _ := sipp.CaseByID("T2")
	sweep, err := SeedSweep(tc, PaperConfigs()[2], DefaultRunOptions(), 6)
	if err != nil {
		t.Fatal(err)
	}
	// Discipline violations are schedule-independent: every seed must catch
	// the libc and gauge bugs.
	for _, fam := range []Family{FamLibc, FamGauge} {
		if rate := sweep.DetectionRate(fam); rate < 1.0 {
			t.Errorf("family %s detected in %.0f%% of seeds, want 100%%", fam, rate*100)
		}
	}
	// The init-order bug is the paper's schedule-dependent find ("occurred
	// due to the different schedule"): it must show up in SOME seeds but is
	// allowed to hide in others — that is the §2.3.2 motivation for
	// repeated runs.
	if rate := sweep.DetectionRate(FamInit); rate == 0 {
		t.Error("init-order bug never detected across the sweep")
	} else {
		t.Logf("init-order bug detected in %.0f%% of seeds (schedule-dependent, as in §4.1.1)", rate*100)
	}
	t.Logf("per-seed locations: %v", sweep.Locations)
}

func TestServerEventStreamWellFormed(t *testing.T) {
	// The full SIP server run must produce a well-formed event stream; this
	// guards the substrate that every experiment stands on.
	tc, _ := sipp.CaseByID("T5")
	opt := DefaultRunOptions()
	v := vm.New(vm.Options{Seed: opt.Seed, Quantum: opt.Quantum})
	val := trace.NewValidator()
	v.AddTool(val)
	guest, _ := SIPGuest(tc, opt, false)
	err := v.Run(guest)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if verr := val.Err(); verr != nil {
		t.Errorf("stream violations: %v", val.Violations())
	}
	if val.Events < 10000 {
		t.Errorf("suspiciously few events: %d", val.Events)
	}
}

func TestFormatFigure6(t *testing.T) {
	rows := []Figure6Row{
		{Case: "T1", Original: 100, HWLC: 60, HWLCDR: 25},
		{Case: "T2", Original: 0, HWLC: 0, HWLCDR: 0},
	}
	out := FormatFigure6(rows)
	for _, want := range []string{"Test case", "T1", "100", "75%", "T2", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatFigure6 missing %q:\n%s", want, out)
		}
	}
	lo, hi := ReductionRange(rows)
	if lo != 75 || hi != 75 {
		t.Errorf("ReductionRange = %v..%v, want 75..75 (zero rows skipped)", lo, hi)
	}
}

func TestFormatFigure5(t *testing.T) {
	rows := []Decomposition{{Case: "T1", BusLock: 5, Destructor: 7, Remaining: 3, TotalOrig: 15}}
	out := FormatFigure5(rows)
	for _, want := range []string{"FP(buslock)", "T1", "5", "7", "3", "15"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatFigure5 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure5MatchesFigure6Original(t *testing.T) {
	if testing.Short() {
		t.Skip("full decomposition in -short mode")
	}
	opt := DefaultRunOptions()
	dec, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := Figure6(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(rows) {
		t.Fatalf("row counts differ: %d vs %d", len(dec), len(rows))
	}
	for i := range dec {
		if dec[i].TotalOrig != rows[i].Original {
			t.Errorf("%s: decomposition total %d != Fig.6 Original %d",
				dec[i].Case, dec[i].TotalOrig, rows[i].Original)
		}
		if dec[i].BusLock+dec[i].Destructor+dec[i].Remaining != dec[i].TotalOrig {
			t.Errorf("%s: decomposition does not sum: %+v", dec[i].Case, dec[i])
		}
	}
}
