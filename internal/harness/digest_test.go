package harness

import (
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/sip"
	"repro/internal/sipp"
)

const paperDigestFile = "testdata/paper.sha256"

// paperDigests runs the paper's experiment matrix — both server patterns,
// with and without the manual suppression file, every test case under every
// Fig. 6 configuration — and returns one "digest  cell" line per run, then
// one for each of the default Fig. 6 and Fig. 5 tables. A run's digest covers
// everything a Result carries: requests handled, guest steps, locations, the
// family classification and the full resolved report.
func paperDigests(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	line := func(cell, content string) {
		fmt.Fprintf(&b, "%x  %s\n", sha256.Sum256([]byte(content)), cell)
	}
	patterns := []struct {
		name string
		p    sip.Pattern
	}{{"per-request", sip.ThreadPerRequest}, {"pool", sip.ThreadPool}}
	sups := []struct{ name, rules string }{{"none", ""}, {"helgrind", HelgrindSuppressions}}
	for _, pat := range patterns {
		for _, sup := range sups {
			opt := DefaultRunOptions()
			opt.Pattern = pat.p
			opt.Suppressions = sup.rules
			for _, tc := range sipp.Cases() {
				for _, det := range PaperConfigs() {
					res, err := RunCase(tc, det, opt)
					if err != nil {
						t.Fatal(err)
					}
					var c strings.Builder
					fmt.Fprintf(&c, "handled=%d steps=%d locations=%d\n", res.Handled, res.Steps, res.Locations)
					fams := make([]string, 0, len(res.ByFamily))
					for f, n := range res.ByFamily {
						fams = append(fams, fmt.Sprintf("%s=%d\n", f, n))
					}
					sort.Strings(fams)
					c.WriteString(strings.Join(fams, ""))
					c.WriteString(res.Collector.Format())
					line(fmt.Sprintf("%s.%s.%s.%s", pat.name, sup.name, tc.ID, det.Name), c.String())
				}
			}
		}
	}
	rows, _, err := Figure6(DefaultRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	line("figure6", FormatFigure6(rows))
	dec, err := Figure5(DefaultRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	line("figure5", FormatFigure5(dec))
	return b.String()
}

// TestPaperReportsDigest pins every byte the paper's experiments produce
// against the committed digest file. A failure lists each cell whose digest
// moved and prints the file this run would commit.
func TestPaperReportsDigest(t *testing.T) {
	got := paperDigests(t)
	data, err := os.ReadFile(paperDigestFile)
	if err != nil {
		t.Fatalf("%v; this run produced:\n%s", err, got)
	}
	want := string(data)
	if got == want {
		return
	}
	wantLines := strings.Split(want, "\n")
	for i, l := range strings.Split(got, "\n") {
		if i >= len(wantLines) || l != wantLines[i] {
			t.Errorf("line %d: got %q", i+1, l)
		}
	}
	t.Fatalf("paper report digests changed; this run produced:\n%s", got)
}
