package scenario

import (
	"fmt"
	"testing"
)

// The differential conformance suite: every generated scenario runs through
// all six tools under both pipeline shapes — live and offline-replay —
// across several scheduler seeds, asserting
//
//	(a) the rendered report is byte-identical across both shapes,
//	(b) every planted bug is reported by its expected tool(s) and invisible
//	    to its absent-listed tools (zero catalog false negatives), and
//	(c) the bug-free control variant produces zero warnings.
//
// A failure prints the generator and scheduler seeds; reproduce any case
// with
//
//	go run ./cmd/scenariogen -seed <gen-seed> -sched <sched-seed> -report

const (
	conformanceScenarios = 21 // ≥ 3 × catalog size: every kind forced thrice
	conformanceSeeds     = 3  // scheduler seeds per scenario
)

func conformanceCorpus() []*Scenario {
	out := make([]*Scenario, 0, conformanceScenarios)
	for seed := int64(1); seed <= conformanceScenarios; seed++ {
		out = append(out, Generate(GenConfig{Seed: seed}))
	}
	return out
}

func TestConformanceMatrix(t *testing.T) {
	for _, s := range conformanceCorpus() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			for sched := int64(1); sched <= conformanceSeeds; sched++ {
				repro := fmt.Sprintf("reproduce: go run ./cmd/scenariogen -seed %d -sched %d -report", s.Seed, sched)

				// Buggy variant: determinism + planted-bug contract.
				m, err := RunMatrix(s, true, sched)
				if err != nil {
					t.Fatalf("sched %d buggy: %v\n%s", sched, err, repro)
				}
				if diff := m.Mismatch(); diff != "" {
					t.Fatalf("sched %d buggy: %s\n%s", sched, diff, repro)
				}
				if fails := CheckBuggy(m.Canonical, m.Resolver, s); len(fails) > 0 {
					t.Errorf("sched %d buggy (bugs %v):\n  %v\n%s", sched, s.Families(), fails, repro)
				}

				// Control variant: determinism + zero warnings.
				mc, err := RunMatrix(s, false, sched)
				if err != nil {
					t.Fatalf("sched %d control: %v\n%s", sched, err, repro)
				}
				if diff := mc.Mismatch(); diff != "" {
					t.Fatalf("sched %d control: %s\n%s", sched, diff, repro)
				}
				if fails := CheckControl(mc.Canonical); len(fails) > 0 {
					t.Errorf("sched %d control:\n  %v\n%s", sched, fails, repro)
				}
			}
		})
	}
}

// TestConformanceTally aggregates the expected-vs-found counts per warning
// family over the whole corpus — the suite's headline numbers (recorded in
// CHANGES.md). Every family must score found == expected.
func TestConformanceTally(t *testing.T) {
	totals := make(map[string]*FamilyTally)
	var order []string
	for _, s := range conformanceCorpus() {
		res, err := RunLive(s, true, 1)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		for _, tally := range TallyFamilies(res.Collector, res.VM, s) {
			agg, ok := totals[tally.Family]
			if !ok {
				agg = &FamilyTally{Family: tally.Family}
				totals[tally.Family] = agg
				order = append(order, tally.Family)
			}
			agg.Expected += tally.Expected
			agg.Found += tally.Found
		}
	}
	for _, fam := range order {
		agg := totals[fam]
		t.Logf("family %-18s expected %3d found %3d", agg.Family, agg.Expected, agg.Found)
		if agg.Found != agg.Expected {
			t.Errorf("family %s: found %d of %d expected warnings", agg.Family, agg.Found, agg.Expected)
		}
	}
	if len(order) < numBugKinds {
		t.Errorf("corpus covers %d families, want all %d", len(order), numBugKinds)
	}
}
