// Sipdebug walks through the paper's full debugging process (§3.2, Fig. 3)
// on the SIP proxy server: run a test case under the three detector
// configurations, show how the false-positive families shrink, and print a
// sample of the surviving true findings — the §4.1 bug catalogue.
//
// Run with:
//
//	go run ./examples/sipdebug
//	go run ./examples/sipdebug -case T5 -verbose
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/harness"
	"repro/internal/sipp"
)

func main() {
	var (
		caseID  = flag.String("case", "T2", "test case T1..T8")
		seed    = flag.Int64("seed", 1, "scheduler seed")
		verbose = flag.Bool("verbose", false, "print every surviving warning")
	)
	flag.Parse()

	tc, ok := sipp.CaseByID(*caseID)
	if !ok {
		fmt.Fprintf(os.Stderr, "sipdebug: unknown case %q\n", *caseID)
		os.Exit(2)
	}
	opt := harness.DefaultRunOptions()
	opt.Seed = *seed

	fmt.Printf("debugging the SIP proxy with test case %s (%s): %d messages, %d clients\n\n",
		tc.ID, tc.Name, tc.MessageCount(), tc.Clients)

	var final *harness.Result
	for _, det := range harness.PaperConfigs() {
		res, err := harness.RunCase(tc, det, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sipdebug:", err)
			os.Exit(1)
		}
		fmt.Printf("%-9s: %3d reported locations", det.Name, res.Locations)
		fams := make([]string, 0, len(res.ByFamily))
		for f := range res.ByFamily {
			fams = append(fams, string(f))
		}
		sort.Strings(fams)
		fmt.Print("  [")
		for i, f := range fams {
			if i > 0 {
				fmt.Print(" ")
			}
			fmt.Printf("%s:%d", f, res.ByFamily[harness.Family(f)])
		}
		fmt.Println("]")
		final = res
	}

	fmt.Printf("\nafter both improvements, %d locations remain; the paper: \"most of them are\n", final.Locations)
	fmt.Println("real synchronization failures\". The survivors here are the seeded §4.1 bugs:")
	fmt.Printf("  true positives: %d, benign: %d, unclassified: %d\n\n",
		final.TruePositives(), final.ByFamily[harness.FamBenign], final.ByFamily[harness.FamOther])

	if *verbose {
		fmt.Print(final.Collector.Format())
	} else {
		fmt.Println("re-run with -verbose to see each surviving warning site")
	}
}
