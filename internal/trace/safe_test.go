package trace

import (
	"strings"
	"testing"
)

// bombSink counts events and panics on Access once armed.
type bombSink struct {
	BaseSink
	armed  bool
	events int
}

func (b *bombSink) ToolName() string { return "bomb" }

func (b *bombSink) Access(*Access) {
	if b.armed {
		panic("tool bug")
	}
	b.events++
}

func (b *bombSink) Alloc(*Block) { b.events++ }

// deliver hands one event to the sink the way the engine does: to the
// unwrapped tool, under a recover that reports to Absorb, and not at all
// once the sink is disabled.
func deliver(s *SafeSink, callback string, call func(Sink)) {
	if s.Disabled() {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			s.Absorb(callback, r)
		}
	}()
	call(s.Unwrap())
}

func TestSafeSinkIsolatesPanic(t *testing.T) {
	bomb := &bombSink{}
	s := NewSafeSink(bomb)
	access := func(k Sink) { k.Access(&Access{Block: 1}) }
	deliver(s, "Alloc", func(k Sink) { k.Alloc(&Block{ID: 1}) })
	deliver(s, "Access", access)
	if s.Err() != nil || s.Disabled() {
		t.Fatalf("unexpected error before panic: %v", s.Err())
	}
	bomb.armed = true
	deliver(s, "Access", access) // must not propagate the panic
	err := s.Err()
	if err == nil || !s.Disabled() {
		t.Fatal("panic not captured")
	}
	if !strings.Contains(err.Error(), "bomb") || !strings.Contains(err.Error(), "Access") {
		t.Errorf("error should name the tool and callback: %v", err)
	}
	// After the first panic the sink is disabled: no more deliveries, and
	// the first error sticks.
	bomb.armed = false
	before := bomb.events
	deliver(s, "Access", access)
	deliver(s, "Alloc", func(k Sink) { k.Alloc(&Block{ID: 2}) })
	if bomb.events != before {
		t.Error("disabled sink still receives events")
	}
	if s.Err() != err {
		t.Error("first error must stick")
	}
}

func TestSafeSinkNilInner(t *testing.T) {
	s := NewSafeSink(nil)
	if !s.Disabled() || s.Unwrap() != nil {
		t.Error("a nil inner sink must be permanently disabled")
	}
	s.Finish() // must not panic
	if s.Err() != nil {
		t.Errorf("nil inner sink produced error: %v", s.Err())
	}
}
