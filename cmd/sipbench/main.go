// Command sipbench regenerates the paper's evaluation tables: the Fig. 6
// table of reported locations per test case and detector configuration, the
// Fig. 5 decomposition into warning families, and the §1 headline reduction
// range.
//
// Usage:
//
//	sipbench                 # Fig. 6 table (thread-per-request, paper bugs)
//	sipbench -decompose      # Fig. 5 family decomposition
//	sipbench -offline        # Fig. 6 from one recording per case (§2.2)
//	sipbench -case T4        # single test case, all configurations, with families
//	sipbench -pool           # run under the Fig. 11 thread-pool pattern
//	sipbench -seed 7         # different schedule
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/harness"
	"repro/internal/sip"
	"repro/internal/sipp"
)

func main() {
	var (
		decompose = flag.Bool("decompose", false, "print the Fig. 5 family decomposition instead of the Fig. 6 table")
		offline   = flag.Bool("offline", false, "record each test case once and replay the log into all three configurations in one pass (§2.2)")
		caseID    = flag.String("case", "", "run a single test case (T1..T8) and print per-family counts")
		pool      = flag.Bool("pool", false, "use the thread-pool pattern (Fig. 11) instead of thread-per-request")
		seed      = flag.Int64("seed", 1, "scheduler seed")
		quantum   = flag.Int("quantum", 3, "scheduling quantum")
		supFile   = flag.String("suppressions", "", "apply a Valgrind-style suppression file (§2.3.1); use 'builtin' for the stock libstdc++/destructor rules")
	)
	flag.Parse()

	opt := harness.DefaultRunOptions()
	opt.Seed = *seed
	opt.Quantum = *quantum
	if *pool {
		opt.Pattern = sip.ThreadPool
	}
	switch *supFile {
	case "":
	case "builtin":
		opt.Suppressions = harness.HelgrindSuppressions
	default:
		data, err := os.ReadFile(*supFile)
		exitOn(err)
		opt.Suppressions = string(data)
	}

	switch {
	case *caseID != "":
		runSingle(*caseID, opt)
	case *decompose:
		rows, err := harness.Figure5(opt)
		exitOn(err)
		fmt.Println("Figure 5 — decomposition of Original-configuration locations:")
		fmt.Print(harness.FormatFigure5(rows))
	case *offline:
		rows, err := harness.Figure6Offline(opt)
		exitOn(err)
		printFigure6("Figure 6 — reported locations, one recording per case replayed into every configuration:", rows)
	default:
		rows, _, err := harness.Figure6(opt)
		exitOn(err)
		printFigure6("Figure 6 — reported possible data race locations:", rows)
	}
}

func printFigure6(title string, rows []harness.Figure6Row) {
	fmt.Println(title)
	fmt.Print(harness.FormatFigure6(rows))
	lo, hi := harness.ReductionRange(rows)
	fmt.Printf("\nfalse positives removed by the improvements: %.0f%% .. %.0f%% (paper: 65%%..81%%)\n", lo, hi)
}

func runSingle(id string, opt harness.RunOptions) {
	tc, ok := sipp.CaseByID(id)
	if !ok {
		fmt.Fprintf(os.Stderr, "sipbench: unknown test case %q (want T1..T8)\n", id)
		os.Exit(2)
	}
	for _, det := range harness.PaperConfigs() {
		res, err := harness.RunCase(tc, det, opt)
		exitOn(err)
		fmt.Printf("%s under %-9s: %3d locations (%d requests handled, %d guest ops)\n",
			tc.ID, det.Name, res.Locations, res.Handled, res.Steps)
		fams := make([]string, 0, len(res.ByFamily))
		for f := range res.ByFamily {
			fams = append(fams, string(f))
		}
		sort.Strings(fams)
		for _, f := range fams {
			fmt.Printf("    %-18s %d\n", f, res.ByFamily[harness.Family(f)])
		}
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sipbench:", err)
		os.Exit(1)
	}
}
