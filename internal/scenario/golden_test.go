package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// The committed golden corpus (testdata/golden) pins the generator and the
// trace encoding. VerifyCorpus is the same routine cmd/scenariogen -verify
// runs from CI, so the in-suite test and the CI step can never drift apart.
// A legitimate generator or encoding change regenerates the corpus with
//
//	go run ./cmd/scenariogen -count 7 -out internal/scenario/testdata/golden

const goldenDir = "testdata/golden"

// TestGoldenCorpusIntegrity regenerates every golden scenario, compares it
// against the manifest digests and the committed trace files, re-checks the
// planted-bug expectations, and requires the corpus to cover the catalog.
func TestGoldenCorpusIntegrity(t *testing.T) {
	problems, err := VerifyCorpus(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}

	m, err := LoadManifest(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[string]bool)
	for _, entry := range m.Scenarios {
		for _, fam := range entry.Families {
			covered[fam] = true
		}
	}
	for _, k := range Kinds() {
		if !covered[k.Family()] {
			t.Errorf("golden corpus does not cover family %s", k.Family())
		}
	}
}

// TestGoldenCorpusReplay replays the committed trace files (not regenerated
// bytes) through the offline pipeline and re-checks ground truth: planted
// bugs found, controls clean.
func TestGoldenCorpusReplay(t *testing.T) {
	m, err := LoadManifest(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range m.Scenarios {
		s := Generate(GenConfig{Seed: want.GenSeed})
		// Resolve stacks/blocks against a fresh identical run.
		recVM, _, err := Record(s, true, want.SchedSeed)
		if err != nil {
			t.Fatalf("%s: %v", want.Name, err)
		}
		log, err := os.ReadFile(filepath.Join(goldenDir, want.Name+".trace"))
		if err != nil {
			t.Fatalf("%s: %v", want.Name, err)
		}
		col, err := RunOffline(recVM, log)
		if err != nil {
			t.Fatalf("%s: offline replay: %v", want.Name, err)
		}
		if fails := CheckBuggy(col, recVM, s); len(fails) > 0 {
			t.Errorf("%s (committed trace): %v", want.Name, fails)
		}

		ctlVM, _, err := Record(s, false, want.SchedSeed)
		if err != nil {
			t.Fatalf("%s: %v", want.Name, err)
		}
		ctlLog, err := os.ReadFile(filepath.Join(goldenDir, want.Name+".control.trace"))
		if err != nil {
			t.Fatalf("%s: %v", want.Name, err)
		}
		ctlCol, err := RunOffline(ctlVM, ctlLog)
		if err != nil {
			t.Fatalf("%s: offline replay: %v", want.Name, err)
		}
		if fails := CheckControl(ctlCol); len(fails) > 0 {
			t.Errorf("%s (committed control trace): %v", want.Name, fails)
		}
	}
}
