package tracelog

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/lockset"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vm"
)

// racyWorkload is a guest program with both real races and FP-family
// patterns, used to compare online vs offline analysis.
func racyWorkload(main *vm.Thread) {
	v := main.VM()
	m := v.NewMutex("m")
	shared := main.Alloc(16, "shared")
	atomicCtr := main.Alloc(4, "refcount")
	w := func(t *vm.Thread) {
		defer t.Func("worker", "workload.cpp", 10)()
		for i := 0; i < 5; i++ {
			t.SetLine(12)
			shared.Store32(t, 0, shared.Load32(t, 0)+1) // unlocked: race
			m.Lock(t)
			t.SetLine(14)
			shared.Store32(t, 4, uint32(i)) // locked: fine
			m.Unlock(t)
			t.SetLine(16)
			atomicCtr.Load32(t, 0) // plain read
			t.SetLine(17)
			atomicCtr.AtomicAdd32(t, 0, 1) // LOCKed write
		}
	}
	a := main.Go("a", w)
	b := main.Go("b", w)
	main.Join(a)
	main.Join(b)
	blk := main.Alloc(8, "freed")
	blk.Free(main)
}

// run executes the workload with the given sinks attached and returns the VM.
func run(t *testing.T, sinks ...trace.Sink) *vm.VM {
	t.Helper()
	v := vm.New(vm.Options{Seed: 3})
	for _, s := range sinks {
		v.AddTool(s)
	}
	if err := v.Run(racyWorkload); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return v
}

func TestRecordReplayMatchesOnline(t *testing.T) {
	// Online analysis.
	vOnline := vm.New(vm.Options{Seed: 3})
	colOnline := report.NewCollector(vOnline, nil)
	vOnline.AddTool(lockset.New(lockset.ConfigOriginal(), colOnline))
	if err := vOnline.Run(racyWorkload); err != nil {
		t.Fatalf("online run: %v", err)
	}

	// Record, then replay offline into an identical detector.
	var log bytes.Buffer
	rec := NewRecorder(&log)
	vRec := run(t, rec)
	if err := rec.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	colOffline := report.NewCollector(vRec, nil) // resolver from the recording VM
	offline := lockset.New(lockset.ConfigOriginal(), colOffline)
	events, err := Replay(bytes.NewReader(log.Bytes()), offline)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if events != rec.Events() {
		t.Errorf("replayed %d events, recorded %d", events, rec.Events())
	}
	if colOffline.Locations() != colOnline.Locations() {
		t.Errorf("offline locations = %d, online = %d", colOffline.Locations(), colOnline.Locations())
	}
	if colOffline.Occurrences() != colOnline.Occurrences() {
		t.Errorf("offline occurrences = %d, online = %d", colOffline.Occurrences(), colOnline.Occurrences())
	}
}

func TestReplayIntoMultipleToolsAtOnce(t *testing.T) {
	var log bytes.Buffer
	rec := NewRecorder(&log)
	vRec := run(t, rec)
	rec.Flush()

	colA := report.NewCollector(vRec, nil)
	colB := report.NewCollector(vRec, nil)
	a := lockset.New(lockset.ConfigOriginal(), colA)
	b := lockset.New(lockset.ConfigHWLC(), colB)
	if _, err := Replay(bytes.NewReader(log.Bytes()), a, b); err != nil {
		t.Fatalf("replay: %v", err)
	}
	// The refcount FP must separate the two configurations on the same log.
	if colA.Locations() <= colB.Locations() {
		t.Errorf("Original (%d) should report more than HWLC (%d) on this log",
			colA.Locations(), colB.Locations())
	}
}

func TestLogGrowsWithTrace(t *testing.T) {
	size := func(iters int) int64 {
		var log bytes.Buffer
		rec := NewRecorder(&log)
		v := vm.New(vm.Options{Seed: 1})
		v.AddTool(rec)
		if err := v.Run(func(main *vm.Thread) {
			b := main.Alloc(8, "x")
			for i := 0; i < iters; i++ {
				b.Store32(main, 0, uint32(i))
			}
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		rec.Flush()
		return int64(log.Len())
	}
	small := size(10)
	big := size(1000)
	if big < small*10 {
		t.Errorf("log should grow ~linearly with the trace: %d vs %d bytes", small, big)
	}
}

func TestReplayTruncatedLogFails(t *testing.T) {
	var log bytes.Buffer
	rec := NewRecorder(&log)
	run(t, rec)
	rec.Flush()
	if log.Len() < 20 {
		t.Fatal("log unexpectedly small")
	}
	truncated := log.Bytes()[:log.Len()/2]
	if _, err := Replay(bytes.NewReader(truncated), &trace.BaseSink{}); err == nil {
		// Truncation may coincidentally cut at an event boundary; cut again
		// mid-varint to be sure.
		if _, err := Replay(bytes.NewReader(truncated[:len(truncated)-1]), &trace.BaseSink{}); err == nil {
			t.Skip("truncation landed on event boundaries twice; acceptable")
		}
	}
}

func TestReplayGarbageFails(t *testing.T) {
	if _, err := Replay(bytes.NewReader([]byte{0xFF, 0x01, 0x02}), &trace.BaseSink{}); err == nil {
		t.Error("garbage log replayed without error")
	}
}

func TestRecorderCountsBytes(t *testing.T) {
	var log bytes.Buffer
	rec := NewRecorder(&log)
	run(t, rec)
	rec.Flush()
	if rec.Bytes() == 0 || rec.Events() == 0 {
		t.Errorf("recorder counters empty: %d bytes, %d events", rec.Bytes(), rec.Events())
	}
	if int64(log.Len()) < rec.Bytes()/2 {
		t.Errorf("emitted bytes (%d) inconsistent with buffer (%d)", rec.Bytes(), log.Len())
	}
}

// TestRecorderBytesEqualOutput: Bytes() is the size of what was written, for
// tags on both sides of the one-byte length prefix (127 | 128) and beyond.
func TestRecorderBytesEqualOutput(t *testing.T) {
	for _, n := range []int{5, 127, 128, 300, 20000} {
		var log bytes.Buffer
		rec := NewRecorder(&log)
		rec.Alloc(&trace.Block{ID: 1, Base: 0x1000, Size: 64, Thread: 1, Stack: 1, Tag: strings.Repeat("x", n)})
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		if rec.Bytes() != int64(log.Len()) {
			t.Errorf("tag of %d bytes: Bytes() = %d, %d written", n, rec.Bytes(), log.Len())
		}
	}
}
