package scenario

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The committed report-digest file pins the *rendered output* of the full
// six-tool registry over the golden corpus, across every pipeline shape:
// {live, offline} × {buggy, control}. Where the
// trace manifest pins the generator and the encoding, this file pins the
// detectors themselves — an internal state-layout change (dense indices,
// epoch fast paths, slab-backed shadow, transition-memoised lock-sets) that
// altered a single report byte fails here with the shape and scenario named.
//
// A legitimate detector-output change regenerates the file with
//
//	UPDATE_GOLDEN_REPORTS=1 go test -run TestGoldenReportDigests ./internal/scenario/
const reportDigestFile = "testdata/golden/reports.sha256"

// goldenReportDigests computes the digest of every (scenario, variant,
// shape) cell over the committed corpus. Live shapes re-execute the scenario
// at the manifest seeds; offline shapes replay the committed trace bytes.
func goldenReportDigests(t *testing.T) map[string]string {
	t.Helper()
	m, err := LoadManifest(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, want := range m.Scenarios {
		s := Generate(GenConfig{Seed: want.GenSeed})
		for _, buggy := range []bool{true, false} {
			variant := "buggy"
			traceFile := want.Name + ".trace"
			if !buggy {
				variant = "control"
				traceFile = want.Name + ".control.trace"
			}
			log, err := os.ReadFile(filepath.Join(goldenDir, traceFile))
			if err != nil {
				t.Fatalf("%s: %v", want.Name, err)
			}
			recVM, _, err := Record(s, buggy, want.SchedSeed)
			if err != nil {
				t.Fatalf("%s: %v", want.Name, err)
			}
			res, err := RunLive(s, buggy, want.SchedSeed)
			if err != nil {
				t.Fatalf("%s: live: %v", want.Name, err)
			}
			out[want.Name+"."+variant+".live"] = Digest([]byte(res.Report()))

			col, err := RunOffline(recVM, log)
			if err != nil {
				t.Fatalf("%s: offline: %v", want.Name, err)
			}
			out[want.Name+"."+variant+".offline"] = Digest([]byte(col.Format()))
		}
	}
	return out
}

// TestGoldenReportDigests verifies every rendered report against the
// committed digest file, or regenerates it under UPDATE_GOLDEN_REPORTS=1.
func TestGoldenReportDigests(t *testing.T) {
	got := goldenReportDigests(t)

	if os.Getenv("UPDATE_GOLDEN_REPORTS") != "" {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s  %s\n", got[k], k)
		}
		if err := os.WriteFile(reportDigestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d cells)", reportDigestFile, len(got))
		return
	}

	f, err := os.Open(reportDigestFile)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN_REPORTS=1)", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("bad digest line %q", sc.Text())
		}
		want[fields[1]] = fields[0]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("digest file lists %d cells, corpus produced %d", len(want), len(got))
	}
	for cell, wd := range want {
		gd, ok := got[cell]
		if !ok {
			t.Errorf("%s: missing from this run", cell)
			continue
		}
		if gd != wd {
			t.Errorf("%s: report digest changed: committed %s, got %s — detector output is no longer byte-identical", cell, wd, gd)
		}
	}
	for cell := range got {
		if _, ok := want[cell]; !ok {
			t.Errorf("%s: not in committed digest file (regenerate with UPDATE_GOLDEN_REPORTS=1)", cell)
		}
	}
}
