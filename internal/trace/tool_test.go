package trace

import (
	"strings"
	"testing"
)

func TestRoutingStrings(t *testing.T) {
	want := map[Routing]string{
		RouteBlock:     "block-routed",
		RouteBroadcast: "broadcast",
		RouteSingle:    "single-shard",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("Routing(%d) = %q, want %q", r, r.String(), s)
		}
	}
}

// finishingSink counts Finish calls; panicky variants panic there.
type finishingSink struct {
	BaseSink
	finished int
	explode  bool
}

func (f *finishingSink) ToolName() string { return "finishing" }

func (f *finishingSink) Finish() {
	f.finished++
	if f.explode {
		panic("finish bug")
	}
}

func TestSafeSinkFinishForwards(t *testing.T) {
	inner := &finishingSink{}
	s := NewSafeSink(inner)
	s.Finish()
	if inner.finished != 1 {
		t.Errorf("Finish forwarded %d times, want 1", inner.finished)
	}
	// A sink without Finish is a no-op, not a panic.
	NewSafeSink(BaseSink{}).Finish()
	NewSafeSink(nil).Finish()
}

func TestSafeSinkFinishPanicIsolated(t *testing.T) {
	s := NewSafeSink(&finishingSink{explode: true})
	s.Finish()
	err := s.Err()
	if err == nil || !strings.Contains(err.Error(), "Finish") {
		t.Errorf("Finish panic not captured: %v", err)
	}
	// The sink is disabled after the panic: Finish is not forwarded again.
	if !s.Disabled() {
		t.Error("sink not disabled by the Finish panic")
	}
	s.Finish()
	if inner := s.Unwrap().(*finishingSink); inner.finished != 1 {
		t.Errorf("Finish forwarded %d times, want 1", inner.finished)
	}
}

func TestKindCategoryRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindRace, KindDeadlock, KindUseAfterFree, KindInvalidFree, KindHighLevel} {
		if k.Category() == "" || k.String() == "" {
			t.Errorf("Kind %d missing string forms", k)
		}
	}
}
