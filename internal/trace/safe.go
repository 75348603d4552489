package trace

import "fmt"

// SafeSink isolates one tool's panics from the event source (the VM
// scheduler or a replay loop). The engine delivers events to the wrapped
// sink (Unwrap) under a recover of its own and hands a caught panic to
// Absorb; the first panic disables the sink — subsequent events are dropped
// — and is reported through Err, so one buggy tool degrades to a no-op
// instead of killing the whole analysis run.
//
// SafeSink is not safe for concurrent use.
type SafeSink struct {
	inner    Sink
	err      error
	disabled bool

	// OnPanic, when set, is called once — at the moment the first panic is
	// absorbed and the sink disabled. The engine points it at its
	// tool-panics counter so absorbed panics are observable instead of
	// silent until Close. It must not itself panic.
	OnPanic func()
}

// NewSafeSink wraps s. A nil s yields a permanently inert sink.
func NewSafeSink(s Sink) *SafeSink {
	ss := &SafeSink{inner: s}
	if s == nil {
		ss.disabled = true
	}
	return ss
}

// Err returns the error describing the first panic, or nil.
func (s *SafeSink) Err() error { return s.err }

// Unwrap returns the wrapped sink.
func (s *SafeSink) Unwrap() Sink { return s.inner }

// Disabled reports whether the sink has stopped taking events: it absorbed a
// panic, or it wraps nil.
func (s *SafeSink) Disabled() bool { return s.disabled }

// Absorb disables the sink over a panic value recovered in the named
// callback. A caller delivering events to Unwrap() under its own recover
// calls it with what the recover returned.
func (s *SafeSink) Absorb(callback string, recovered any) {
	s.disabled = true
	s.err = fmt.Errorf("trace: sink %q panicked in %s: %v", s.inner.ToolName(), callback, recovered)
	if s.OnPanic != nil {
		s.OnPanic()
	}
}

// Finish forwards the end-of-stream pass to the wrapped sink when it
// implements Finisher and the sink is not disabled, absorbing a panic there
// like one in an event callback. It is a no-op otherwise, so callers can
// invoke it unconditionally.
func (s *SafeSink) Finish() {
	f, ok := s.inner.(Finisher)
	if !ok || s.disabled {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			s.Absorb("Finish", r)
		}
	}()
	f.Finish()
}
