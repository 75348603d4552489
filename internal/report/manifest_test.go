package report

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/trace"
)

func testWarning(tool string, kind Kind, stack trace.StackID) Warning {
	return Warning{Tool: tool, Kind: kind, Stack: stack, Thread: 1, Addr: 0x1000}
}

// TestCloneIndependence pins the Clone contract the engine's snapshots rely
// on: a clone is a frozen checkpoint — warnings added to the original
// afterwards (new sites and count bumps alike) are invisible to it, and vice
// versa.
func TestCloneIndependence(t *testing.T) {
	var seq uint64
	c := NewCollector(nil, nil)
	c.SetSequencer(func() uint64 { return seq })
	seq = 1
	c.Add(testWarning("helgrind", KindRace, 10))
	seq = 2
	c.Add(testWarning("memcheck", KindUseAfterFree, 20))

	snap := c.Clone()
	if snap.Locations() != 2 || snap.Occurrences() != 2 {
		t.Fatalf("clone = %d locations / %d occurrences, want 2/2", snap.Locations(), snap.Occurrences())
	}

	seq = 3
	c.Add(testWarning("helgrind", KindRace, 10)) // folds into the existing site
	c.Add(testWarning("helgrind", KindRace, 30)) // new site
	if c.Locations() != 3 || snap.Locations() != 2 {
		t.Errorf("after original grew: original %d sites, clone %d — want 3, 2", c.Locations(), snap.Locations())
	}
	if got := snap.Sites()[0].Count; got != 1 {
		t.Errorf("clone count mutated by original fold: %d, want 1", got)
	}
	snap.Add(testWarning("clone-only", KindRace, 40))
	if c.Locations() != 3 {
		t.Error("adding to the clone leaked into the original")
	}
}

// TestManifestFormat pins the manifest line shape the ingest "snapshots"
// query exchanges.
func TestManifestFormat(t *testing.T) {
	var seq uint64
	c := NewCollector(nil, nil)
	c.SetSequencer(func() uint64 { return seq })
	seq = 5
	c.Add(testWarning("helgrind", KindRace, 12))
	seq = 9
	c.Add(testWarning("helgrind", KindRace, 12))
	got := c.Manifest()
	want := fmt.Sprintf("seq=5 tool=helgrind kind=Race site=%s count=2\n", LocKeyFor(12, nil))
	if got != want {
		t.Errorf("Manifest = %q, want %q", got, want)
	}
	if (&Collector{}).Manifest() != "" {
		t.Error("empty collector manifest not empty")
	}
}

// TestPrefixConsistent exercises the snapshot-vs-final check on the accepting
// and on every rejecting axis.
func TestPrefixConsistent(t *testing.T) {
	final := strings.Join([]string{
		"seq=3 tool=helgrind kind=Race site=1 count=4",
		"seq=7 tool=memcheck kind=UseAfterFree site=2 count=1",
		"seq=9 tool=djit kind=Race site=3 count=2",
	}, "\n") + "\n"

	ok := []string{
		"", // empty snapshot: trivially consistent
		"seq=3 tool=helgrind kind=Race site=1 count=2\n",
		"seq=3 tool=helgrind kind=Race site=1 count=4\nseq=7 tool=memcheck kind=UseAfterFree site=2 count=1\n",
		final,
	}
	for i, snap := range ok {
		if err := PrefixConsistent(snap, final); err != nil {
			t.Errorf("consistent snapshot %d rejected: %v", i, err)
		}
	}

	bad := map[string]string{
		"site-mismatch":  "seq=3 tool=djit kind=Race site=1 count=1\n",
		"not-a-prefix":   "seq=7 tool=memcheck kind=UseAfterFree site=2 count=1\n",
		"count-exceeds":  "seq=3 tool=helgrind kind=Race site=1 count=5\n",
		"longer":         final + "seq=11 tool=djit kind=Race site=4 count=1\n",
		"malformed-line": "what even is this\n",
	}
	for name, snap := range bad {
		if err := PrefixConsistent(snap, final); err == nil {
			t.Errorf("%s: inconsistent snapshot accepted", name)
		}
	}
}
