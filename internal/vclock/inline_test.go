package vclock

import (
	"os/exec"
	"strings"
	"testing"
)

// mustInline lists, per package, the functions on the race detectors'
// per-access path that the compiler must keep inlining. A change that takes
// one off the list says why. (*Cell).Read and (*Cell).Write are not on it:
// at cost 94 and 122 they are over the budget of 80, and each is one call
// per granule.
var mustInline = map[string][]string{
	"repro/internal/trace": {
		"Granules", "(*Dense).Lookup", "EdgeMask.Has",
	},
	"repro/internal/vclock": {
		"VC.Get", "VC.Set", "VC.LEQ", "VC.Clear", "VC.Tick",
		"Epoch.HappensBefore", "(*HB).Now",
	},
	"repro/internal/lockset": {
		"(*Held).For",
	},
}

// inlineScan is every package the check compiles: the listed ones and the
// detectors that call them.
var inlineScan = []string{
	"repro/internal/trace", "repro/internal/vclock", "repro/internal/vectorclock",
	"repro/internal/hybrid", "repro/internal/lockset",
}

// TestInlineBudget compiles the hot packages with the compiler's inlining
// diagnostics and fails if a function on mustInline is not among the ones
// it can inline. Unlike a timing, the result does not depend on the host.
func TestInlineBudget(t *testing.T) {
	out, err := exec.Command("go", append([]string{"build", "-gcflags=-m=2"}, inlineScan...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m=2: %v\n%s", err, out)
	}
	can := map[string]string{}    // "pkg fn" -> the diagnostic
	cannot := map[string]string{} // "pkg fn" -> the reason
	pkg := ""
	for _, line := range strings.Split(string(out), "\n") {
		if p, ok := strings.CutPrefix(line, "# "); ok {
			pkg = p
			continue
		}
		if _, rest, ok := strings.Cut(line, ": can inline "); ok {
			can[pkg+" "+strings.Fields(rest)[0]] = rest
		} else if _, rest, ok := strings.Cut(line, ": cannot inline "); ok {
			fn, reason, _ := strings.Cut(rest, ": ")
			cannot[pkg+" "+fn] = reason
		}
	}
	for p, fns := range mustInline {
		for _, fn := range fns {
			key := p + " " + fn
			if d, ok := can[key]; ok {
				t.Logf("%s: %s", p, strings.SplitN(d, " as:", 2)[0])
			} else if reason, ok := cannot[key]; ok {
				t.Errorf("%s: %s no longer inlines: %s", p, fn, reason)
			} else {
				t.Errorf("%s: %s not found in the compiler's inlining diagnostics", p, fn)
			}
		}
	}
}
