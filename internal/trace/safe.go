package trace

import "fmt"

// SafeSink wraps a Sink and guarantees that a panic inside any callback
// cannot propagate into the event source (the VM scheduler or a replay
// loop). The first panic disables the wrapped sink — subsequent events are
// dropped — and is reported through Err, so one buggy tool degrades to a
// no-op instead of killing the whole analysis run.
//
// SafeSink is not safe for concurrent use; like any Sink it expects the
// sequential event delivery the VM and the replay paths provide (the
// parallel engine gives every shard its own SafeSink).
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

// Disabled reports whether the sink has stopped forwarding events: it
// absorbed a panic, or it wraps nil.
func (s *SafeSink) Disabled() bool { return s.disabled }

// Absorb disables the sink over a panic value recovered in the named
// callback. SafeSink's own callbacks end up here; it is exported for a caller
// that delivers a run of events to Unwrap() under one recover of its own (the
// engine's batch delivery) and must leave the sink in the state a panic
// caught here would have.
func (s *SafeSink) Absorb(callback string, recovered any) {
	s.disabled = true
	s.err = fmt.Errorf("trace: sink %q panicked in %s: %v", s.inner.ToolName(), callback, recovered)
	if s.OnPanic != nil {
		s.OnPanic()
	}
}

// safely runs call, converting a panic into a sticky error.
func (s *SafeSink) safely(callback string, call func()) {
	if s.disabled {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			s.Absorb(callback, r)
		}
	}()
	call()
}

// ToolName implements Sink.
func (s *SafeSink) ToolName() string {
	if s.inner == nil {
		return "safe(nil)"
	}
	return s.inner.ToolName()
}

// Access implements Sink.
func (s *SafeSink) Access(a *Access) { s.safely("Access", func() { s.inner.Access(a) }) }

// Acquire implements Sink.
func (s *SafeSink) Acquire(t ThreadID, l LockID, k LockKind, st StackID) {
	s.safely("Acquire", func() { s.inner.Acquire(t, l, k, st) })
}

// Contended implements Sink.
func (s *SafeSink) Contended(t ThreadID, l LockID, st StackID) {
	s.safely("Contended", func() { s.inner.Contended(t, l, st) })
}

// Release implements Sink.
func (s *SafeSink) Release(t ThreadID, l LockID, k LockKind, st StackID) {
	s.safely("Release", func() { s.inner.Release(t, l, k, st) })
}

// Alloc implements Sink.
func (s *SafeSink) Alloc(b *Block) { s.safely("Alloc", func() { s.inner.Alloc(b) }) }

// Free implements Sink.
func (s *SafeSink) Free(b *Block, t ThreadID, st StackID) {
	s.safely("Free", func() { s.inner.Free(b, t, st) })
}

// Segment implements Sink.
func (s *SafeSink) Segment(ss *SegmentStart) { s.safely("Segment", func() { s.inner.Segment(ss) }) }

// Sync implements Sink.
func (s *SafeSink) Sync(ev *SyncEvent) { s.safely("Sync", func() { s.inner.Sync(ev) }) }

// Request implements Sink.
func (s *SafeSink) Request(r *Request) { s.safely("Request", func() { s.inner.Request(r) }) }

// ThreadStart implements Sink.
func (s *SafeSink) ThreadStart(t, parent ThreadID) {
	s.safely("ThreadStart", func() { s.inner.ThreadStart(t, parent) })
}

// ThreadExit implements Sink.
func (s *SafeSink) ThreadExit(t ThreadID) { s.safely("ThreadExit", func() { s.inner.ThreadExit(t) }) }

// Finish forwards the end-of-stream pass to the wrapped sink when it
// implements Finisher, with the same panic isolation as the event callbacks.
// It is a no-op otherwise, so callers can invoke it unconditionally.
func (s *SafeSink) Finish() {
	if f, ok := s.inner.(Finisher); ok {
		s.safely("Finish", func() { f.Finish() })
	}
}

var _ Sink = (*SafeSink)(nil)

// Fanout returns a Sink that forwards every event to each of the given
// sinks in order, so several tools can share one event stream slot (e.g.
// one engine shard running lockset and DJIT side by side).
func Fanout(sinks ...Sink) Sink { return fanout(sinks) }

type fanout []Sink

// ToolName implements Sink.
func (f fanout) ToolName() string { return "fanout" }

// Access implements Sink.
func (f fanout) Access(a *Access) {
	for _, s := range f {
		s.Access(a)
	}
}

// Acquire implements Sink.
func (f fanout) Acquire(t ThreadID, l LockID, k LockKind, st StackID) {
	for _, s := range f {
		s.Acquire(t, l, k, st)
	}
}

// Contended implements Sink.
func (f fanout) Contended(t ThreadID, l LockID, st StackID) {
	for _, s := range f {
		s.Contended(t, l, st)
	}
}

// Release implements Sink.
func (f fanout) Release(t ThreadID, l LockID, k LockKind, st StackID) {
	for _, s := range f {
		s.Release(t, l, k, st)
	}
}

// Alloc implements Sink.
func (f fanout) Alloc(b *Block) {
	for _, s := range f {
		s.Alloc(b)
	}
}

// Free implements Sink.
func (f fanout) Free(b *Block, t ThreadID, st StackID) {
	for _, s := range f {
		s.Free(b, t, st)
	}
}

// Segment implements Sink.
func (f fanout) Segment(ss *SegmentStart) {
	for _, s := range f {
		s.Segment(ss)
	}
}

// Sync implements Sink.
func (f fanout) Sync(ev *SyncEvent) {
	for _, s := range f {
		s.Sync(ev)
	}
}

// Request implements Sink.
func (f fanout) Request(r *Request) {
	for _, s := range f {
		s.Request(r)
	}
}

// ThreadStart implements Sink.
func (f fanout) ThreadStart(t, parent ThreadID) {
	for _, s := range f {
		s.ThreadStart(t, parent)
	}
}

// ThreadExit implements Sink.
func (f fanout) ThreadExit(t ThreadID) {
	for _, s := range f {
		s.ThreadExit(t)
	}
}

var _ Sink = fanout(nil)
