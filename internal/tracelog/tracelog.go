// Package tracelog implements offline (post-mortem) analysis, the
// alternative execution mode discussed in §2.2 and §4.5 of the paper:
// "Principally, on-the-fly checkers can work post mortem and hence reduce
// the performance impact due to the online calculations. But they still
// need logging of the execution trace. Hence, offline techniques suffer
// from their need for large amount of data."
//
// A Recorder is a trace.Sink that serialises the full event stream into a
// compact binary log; Replay feeds a recorded log back into any set of
// tools, producing bit-identical analysis results. The trade-off the paper
// describes is directly measurable: recording is cheaper per event than
// lock-set analysis, but the log grows linearly with the execution trace
// (Recorder.Bytes).
package tracelog

import (
	"bufio"
	"encoding/binary"
	"io"

	"repro/internal/trace"
)

// Event opcodes in the binary log.
const (
	opAccess byte = iota + 1
	opAcquire
	opRelease
	opContended
	opAlloc
	opFree
	opSegment
	opSync
	opRequest
	opThreadStart
	opThreadExit
)

// Recorder serialises the event stream. It implements trace.Sink.
type Recorder struct {
	w      *bufio.Writer
	events int64
	bytes  int64
	err    error
	buf    []byte
}

// NewRecorder creates a recorder writing the binary log to w.
func NewRecorder(w io.Writer) *Recorder {
	return &Recorder{w: bufio.NewWriter(w), buf: make([]byte, 0, 64)}
}

// ToolName implements trace.Sink.
func (r *Recorder) ToolName() string { return "tracelog" }

// Events returns the number of events recorded.
func (r *Recorder) Events() int64 { return r.events }

// Bytes returns the number of payload bytes emitted so far (excluding
// anything still buffered).
func (r *Recorder) Bytes() int64 { return r.bytes }

// Err returns the first write error, if any.
func (r *Recorder) Err() error { return r.err }

// Flush drains the internal buffer to the underlying writer.
func (r *Recorder) Flush() error {
	if err := r.w.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	return r.err
}

func (r *Recorder) emit(op byte, fields ...uint64) {
	if r.err != nil {
		return
	}
	r.buf = r.buf[:0]
	r.buf = append(r.buf, op)
	for _, f := range fields {
		r.buf = binary.AppendUvarint(r.buf, f)
	}
	n, err := r.w.Write(r.buf)
	r.bytes += int64(n)
	r.events++
	if err != nil {
		r.err = err
	}
}

// emitString writes a length-prefixed string.
func (r *Recorder) emitString(s string) {
	if r.err != nil {
		return
	}
	r.buf = binary.AppendUvarint(r.buf[:0], uint64(len(s)))
	n, err := r.w.Write(r.buf)
	r.bytes += int64(n)
	if err != nil {
		r.err = err
		return
	}
	n, err = r.w.WriteString(s)
	r.bytes += int64(n)
	if err != nil {
		r.err = err
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Access implements trace.Sink.
func (r *Recorder) Access(a *trace.Access) {
	r.emit(opAccess, uint64(a.Thread), uint64(a.Seg), uint64(a.Block), uint64(a.Addr),
		uint64(a.Off), uint64(a.Size), uint64(a.Kind), b2u(a.Atomic), uint64(a.Stack))
}

// Acquire implements trace.Sink.
func (r *Recorder) Acquire(t trace.ThreadID, l trace.LockID, k trace.LockKind, s trace.StackID) {
	r.emit(opAcquire, uint64(t), uint64(l), uint64(k), uint64(s))
}

// Release implements trace.Sink.
func (r *Recorder) Release(t trace.ThreadID, l trace.LockID, k trace.LockKind, s trace.StackID) {
	r.emit(opRelease, uint64(t), uint64(l), uint64(k), uint64(s))
}

// Contended implements trace.Sink.
func (r *Recorder) Contended(t trace.ThreadID, l trace.LockID, s trace.StackID) {
	r.emit(opContended, uint64(t), uint64(l), uint64(s))
}

// Alloc implements trace.Sink.
func (r *Recorder) Alloc(b *trace.Block) {
	r.emit(opAlloc, uint64(b.ID), uint64(b.Base), uint64(b.Size), uint64(b.Thread), uint64(b.Stack))
	r.emitString(b.Tag)
}

// Free implements trace.Sink.
func (r *Recorder) Free(b *trace.Block, t trace.ThreadID, s trace.StackID) {
	r.emit(opFree, uint64(b.ID), uint64(t), uint64(s))
}

// Segment implements trace.Sink.
func (r *Recorder) Segment(ss *trace.SegmentStart) {
	fields := []uint64{uint64(ss.Seg), uint64(ss.Thread), uint64(len(ss.In))}
	for _, e := range ss.In {
		fields = append(fields, uint64(e.From), uint64(e.Kind))
	}
	r.emit(opSegment, fields...)
}

// Sync implements trace.Sink.
func (r *Recorder) Sync(ev *trace.SyncEvent) {
	r.emit(opSync, uint64(ev.Op), uint64(ev.Obj), uint64(ev.Thread), uint64(ev.Msg), uint64(ev.Stack))
}

// Request implements trace.Sink.
func (r *Recorder) Request(req *trace.Request) {
	r.emit(opRequest, uint64(req.Kind), uint64(req.Thread), uint64(req.Block),
		uint64(req.Off), uint64(req.Size), uint64(req.Stack))
}

// ThreadStart implements trace.Sink.
func (r *Recorder) ThreadStart(t, parent trace.ThreadID) {
	r.emit(opThreadStart, uint64(t), uint64(parent))
}

// ThreadExit implements trace.Sink.
func (r *Recorder) ThreadExit(t trace.ThreadID) {
	r.emit(opThreadExit, uint64(t))
}

var _ trace.Sink = (*Recorder)(nil)

// Replay reads a binary log and delivers every event to the given sinks, in
// order. Blocks are reconstructed so that Free events carry the matching
// descriptor. It returns the number of events replayed.
//
// Replay delivers event-major, straight into the sinks with no isolation or
// sequencing; internal/engine consumes the same Decoder a batch at a time to
// run a tool registry.
func Replay(rd io.Reader, sinks ...trace.Sink) (int64, error) {
	d := AcquireDecoder(rd)
	defer d.Release()
	var ev Event
	for {
		err := d.Next(&ev)
		if err == io.EOF {
			return d.Events(), nil
		}
		if err != nil {
			return d.Events(), err
		}
		for _, s := range sinks {
			ev.Deliver(s)
		}
	}
}
