package core

import (
	"strings"
	"testing"

	"repro/internal/lockset"
	"repro/internal/vectorclock"
	"repro/internal/vm"
)

// ---- ParseTools error paths ----

func TestParseToolsUnknownName(t *testing.T) {
	for _, list := range []string{"nonsense", "lockset,nonsense", "all,nonsense"} {
		_, err := Options{}.ParseTools(list)
		if err == nil {
			t.Errorf("ParseTools(%q): no error for unknown tool", list)
			continue
		}
		if !strings.Contains(err.Error(), "nonsense") || !strings.Contains(err.Error(), "known:") {
			t.Errorf("ParseTools(%q): error %q does not name the bad tool and the known set", list, err)
		}
	}
}

func TestParseToolsEmpty(t *testing.T) {
	for _, list := range []string{"", ",", " , "} {
		specs, err := Options{}.ParseTools(list)
		if err != nil {
			t.Errorf("ParseTools(%q): %v", list, err)
		}
		if len(specs) != 0 {
			t.Errorf("ParseTools(%q) = %d specs, want 0", list, len(specs))
		}
	}
}

func TestParseToolsAll(t *testing.T) {
	specs, err := Options{}.ParseTools("all")
	if err != nil {
		t.Fatalf("ParseTools(all): %v", err)
	}
	if len(specs) != len(ToolNames) {
		t.Fatalf("ParseTools(all) = %d specs, want %d", len(specs), len(ToolNames))
	}
	// Per-tool configurations flow into the expansion.
	opt := Options{Lockset: lockset.Config{Tool: "custom-helgrind", Bus: lockset.BusRWLock}}
	specs, err = opt.ParseTools("lockset,deadlock")
	if err != nil {
		t.Fatalf("ParseTools: %v", err)
	}
	if specs[0].Name != "custom-helgrind" {
		t.Errorf("configured lockset name not honoured: got %q", specs[0].Name)
	}
}

// TestParseToolsDuplicate: ParseTools happily returns duplicate names (the
// registry is a list), and the duplicate is rejected by engine validation.
func TestParseToolsDuplicate(t *testing.T) {
	specs, err := Options{}.ParseTools("lockset,lockset")
	if err != nil {
		t.Fatalf("ParseTools: %v", err)
	}
	if len(specs) != 2 {
		t.Fatalf("got %d specs, want 2", len(specs))
	}
	_, err = Run(Options{Tools: specs}, func(main *vm.Thread) {})
	if err == nil || !strings.Contains(err.Error(), "duplicate tool name") {
		t.Errorf("Run with duplicate tools: err = %v, want duplicate-name error", err)
	}
}

// TestToolSpecsConfigDefaulting: only the zero-value detector configs are
// upgraded to the canonical defaults; explicit partial configs pass through.
func TestToolSpecsConfigDefaulting(t *testing.T) {
	// Zero lockset config → paper's strongest (HWLC+DR: rwlock bus, destruct).
	spec := Options{}.locksetSpec()
	if spec.Name != "helgrind" {
		t.Errorf("default lockset name %q", spec.Name)
	}
	// Explicit partial config must NOT be upgraded.
	partial := Options{Lockset: lockset.Config{Tool: "bare"}}.locksetSpec()
	if partial.Name != "bare" {
		t.Errorf("explicit lockset config clobbered: name %q", partial.Name)
	}
	// Same contract for DJIT.
	dj := Options{DJIT: vectorclock.Config{Tool: "dj2"}}.djitSpec()
	if dj.Name != "dj2" {
		t.Errorf("explicit djit config clobbered: name %q", dj.Name)
	}
}
