package engine_test

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/lockset"
	"repro/internal/memcheck"
	"repro/internal/trace"
	"repro/internal/tracelog"
	"repro/internal/vm"
)

// recordSmall records a small racy guest (an unlocked shared counter plus an
// allocate/free pair) and returns the binary log and the recording VM.
func recordSmall(t testing.TB) ([]byte, *vm.VM) {
	t.Helper()
	var buf bytes.Buffer
	rec := tracelog.NewRecorder(&buf)
	v := vm.New(vm.Options{Seed: 7})
	v.AddTool(rec)
	err := v.Run(func(main *vm.Thread) {
		shared := main.Alloc(8, "shared")
		tmp := main.Alloc(16, "tmp")
		tmp.Write(main, 0, 8)
		tmp.Free(main)
		workers := make([]*vm.Thread, 2)
		for i := range workers {
			workers[i] = main.Go("w", func(th *vm.Thread) {
				for j := 0; j < 4; j++ {
					shared.Store64(th, 0, shared.Load64(th, 0)+1) // racy on purpose
				}
			})
		}
		for _, w := range workers {
			main.Join(w)
		}
	})
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes(), v
}

func closeTools() []trace.ToolSpec {
	return []trace.ToolSpec{
		lockset.Spec(lockset.ConfigHWLCDR()),
		memcheck.Spec(memcheck.Config{}),
	}
}

// midEventCut returns a prefix of log that tears the final event, so that
// decoding it fails rather than ending in a clean io.EOF. Starting near the
// given position it walks backwards until the prefix decodes with an error.
func midEventCut(t testing.TB, log []byte, around int) []byte {
	t.Helper()
	for n := around; n > 1; n-- {
		d := tracelog.NewDecoder(bytes.NewReader(log[:n]))
		var ev tracelog.Event
		var err error
		for err == nil {
			err = d.Next(&ev)
		}
		if err != io.EOF {
			return log[:n]
		}
	}
	t.Fatal("no mid-event cut found")
	return nil
}

// TestCloseIdempotent pins the double-Close contract: the second Close
// returns exactly the first call's collector and error, and dispatching
// after Close is a no-op.
func TestCloseIdempotent(t *testing.T) {
	log, v := recordSmall(t)
	seq, err := engine.NewSequential(engine.Options{Tools: closeTools(), Resolver: v})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seq.ReplayLog(bytes.NewReader(log)); err != nil {
		t.Fatalf("replay: %v", err)
	}
	col1, err1 := seq.Close()
	if err1 != nil {
		t.Fatalf("close: %v", err1)
	}
	if col1 == nil || col1.Locations() == 0 {
		t.Fatal("expected warnings from the racy guest")
	}
	col2, err2 := seq.Close()
	if col2 != col1 || err2 != err1 {
		t.Errorf("second Close = (%p, %v), want (%p, %v)", col2, err2, col1, err1)
	}
	before := seq.Events()
	seq.ThreadStart(99, 1) // dispatch after Close must be dropped
	if seq.Events() != before {
		t.Error("dispatch after Close counted an event")
	}
	col3, err3 := seq.Close()
	if col3 != col1 || err3 != err1 {
		t.Error("third Close unstable")
	}
}

// TestCloseAfterStreamError pins the mid-stream failure contract: a replay
// that fails after partial dispatch (truncated log) must make Close return a
// stable error and a nil collector — never a partial merged report.
func TestCloseAfterStreamError(t *testing.T) {
	log, v := recordSmall(t)
	// Cut mid-log: enough bytes for many whole events plus one torn one.
	cut := midEventCut(t, log, len(log)/2)
	seq, err := engine.NewSequential(engine.Options{Tools: closeTools(), Resolver: v})
	if err != nil {
		t.Fatal(err)
	}
	n, rerr := seq.ReplayLog(bytes.NewReader(cut))
	if rerr == nil {
		t.Fatal("truncated replay succeeded")
	}
	if n == 0 {
		t.Fatal("expected partial dispatch before the failure")
	}
	col1, err1 := seq.Close()
	if col1 != nil {
		t.Errorf("Close after stream error returned a partial report (%d locations)", col1.Locations())
	}
	if err1 == nil || !strings.Contains(err1.Error(), "stream failed") {
		t.Errorf("Close error = %v, want stream-failure error", err1)
	}
	if !errors.Is(err1, rerr) && !strings.Contains(err1.Error(), rerr.Error()) {
		t.Errorf("Close error %v does not wrap replay error %v", err1, rerr)
	}
	col2, err2 := seq.Close()
	if col2 != nil || err2 != err1 {
		t.Errorf("second Close after failure = (%v, %v), want (nil, %v)", col2, err2, err1)
	}
	if sums := seq.Summaries(); len(sums) != 0 {
		// A failed stream has no report surface at all; summaries of a
		// prefix would be as misleading as a partial merged report.
		t.Errorf("Summaries after stream error = %v, want empty", sums)
	}
}

// TestTruncatedLogErrUnexpectedEOF pins that a log truncated mid-event fails
// with io.ErrUnexpectedEOF, not a clean EOF.
func TestTruncatedLogErrUnexpectedEOF(t *testing.T) {
	log, v := recordSmall(t)
	cut := midEventCut(t, log, len(log)-1)
	seq, err := engine.NewSequential(engine.Options{Tools: closeTools(), Resolver: v})
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := seq.ReplayLog(bytes.NewReader(cut))
	seq.Close()
	if !errors.Is(rerr, io.ErrUnexpectedEOF) {
		t.Errorf("replay error = %v, want io.ErrUnexpectedEOF", rerr)
	}
}
