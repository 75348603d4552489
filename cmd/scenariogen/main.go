// Command scenariogen generates, inspects and verifies conformance
// scenarios: seeded random guest programs with planted bugs of known ground
// truth (internal/scenario).
//
// Modes (first match wins; with no mode flag, -list is implied):
//
//	scenariogen -verify internal/scenario/testdata/golden
//	    corpus integrity: re-generate every manifest entry, compare the
//	    regenerated bytes against both the manifest digests and the
//	    committed files, and re-check the planted-bug expectations
//
//	scenariogen -count 7 -out internal/scenario/testdata/golden
//	    record scenarios 1..7 (buggy and control variants) as tracelog
//	    files and write manifest.json with their SHA-256 digests, event
//	    counts and expected warning families
//
//	scenariogen -seed 7 -sched 2 -report
//	    run the buggy and control variants under all six tools and print
//	    the merged reports plus the expectation check — this is how a
//	    conformance-suite failure is reproduced from its printed seeds
//
//	scenariogen -seed 7 -list
//	    describe the scenario generated from seed 7 (threads, resources,
//	    planted bug families and the expected warnings per bug)
//
// -count applies to every mode except -verify: it processes that many
// consecutive generator seeds starting at -seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/scenario"
)

var (
	seed   = flag.Int64("seed", 1, "generator seed (first seed with -count)")
	count  = flag.Int("count", 1, "number of consecutive seeds to process")
	sched  = flag.Int64("sched", 1, "scheduler seed")
	out    = flag.String("out", "", "write trace corpus + manifest.json into this directory")
	verify = flag.String("verify", "", "verify a corpus directory against its manifest.json")
	report = flag.Bool("report", false, "run the scenario under all six tools and print the reports")
	list   = flag.Bool("list", false, "describe the generated scenario(s) (the default mode)")
)

func main() {
	flag.Parse()

	run := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "scenariogen:", err)
			os.Exit(1)
		}
	}
	forEachSeed := func(fn func(*scenario.Scenario) error) error {
		for i := 0; i < *count; i++ {
			if err := fn(scenario.Generate(scenario.GenConfig{Seed: *seed + int64(i)})); err != nil {
				return err
			}
		}
		return nil
	}

	switch {
	case *verify != "":
		run(verifyCorpus(*verify))
	case *out != "":
		run(writeCorpus(*out, *seed, *count, *sched))
	case *report:
		run(forEachSeed(func(s *scenario.Scenario) error { return printReport(s, *sched) }))
	case *list:
		fallthrough
	default:
		run(forEachSeed(func(s *scenario.Scenario) error { describe(s); return nil }))
	}
}

func describe(s *scenario.Scenario) {
	fmt.Printf("%s: %d workers, %d resources, %d planted bug(s)\n",
		s.Name(), s.Workers(), s.Resources(), len(s.Bugs))
	for _, b := range s.Bugs {
		fmt.Printf("  %-28s expected:", b.Tag)
		for _, e := range b.Expected() {
			fmt.Printf(" %s", e)
		}
		if abs := b.Absent(); len(abs) > 0 {
			fmt.Printf("  absent:")
			for _, e := range abs {
				fmt.Printf(" %s", e.Tool)
			}
		}
		fmt.Println()
	}
}

func printReport(s *scenario.Scenario, sched int64) error {
	describe(s)

	res, err := scenario.RunLive(s, true, sched)
	if err != nil {
		return err
	}
	fmt.Printf("\n--- buggy variant (sched seed %d) ---\n%s", sched, res.Report())
	fails := scenario.CheckBuggy(res.Collector, res.VM, s)
	for _, f := range fails {
		fmt.Println("FAIL:", f)
	}
	fmt.Println("\nexpected-vs-found by family:")
	for _, tl := range scenario.TallyFamilies(res.Collector, res.VM, s) {
		fmt.Printf("  %-18s expected %d found %d\n", tl.Family, tl.Expected, tl.Found)
	}

	ctl, err := scenario.RunLive(s, false, sched)
	if err != nil {
		return err
	}
	fmt.Printf("\n--- control variant (sched seed %d) ---\n%s", sched, ctl.Report())
	cfails := scenario.CheckControl(ctl.Collector)
	for _, f := range cfails {
		fmt.Println("FAIL:", f)
	}
	if len(fails)+len(cfails) > 0 {
		return fmt.Errorf("%d expectation failure(s)", len(fails)+len(cfails))
	}
	fmt.Println("\nall expectations hold")
	return nil
}

func writeCorpus(dir string, seed int64, count int, sched int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var m scenario.Manifest
	for i := 0; i < count; i++ {
		s := scenario.Generate(scenario.GenConfig{Seed: seed + int64(i)})
		entry, buggy, control, err := scenario.RecordEntry(s, sched)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, s.Name()+".trace"), buggy, 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, s.Name()+".control.trace"), control, 0o644); err != nil {
			return err
		}
		m.Scenarios = append(m.Scenarios, entry)
		fmt.Printf("wrote %s: %d events, bugs %v\n", s.Name(), entry.Events, entry.Families)
	}
	data, err := scenario.MarshalManifest(&m)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644)
}

func verifyCorpus(dir string) error {
	problems, err := scenario.VerifyCorpus(dir)
	if err != nil {
		return err
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d corpus integrity failure(s)", len(problems))
	}
	m, err := scenario.LoadManifest(dir)
	if err != nil {
		return err
	}
	fmt.Printf("corpus ok: %d scenarios verified\n", len(m.Scenarios))
	return nil
}
