package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// TestPressureLevel pins the occupancy thresholds and the waiter override.
func TestPressureLevel(t *testing.T) {
	s := &Server{met: newServerMetrics(nil), sem: make(chan struct{}, 8)}
	fill := func(n int) {
		for len(s.sem) < n {
			s.sem <- struct{}{}
		}
	}
	if got := s.pressureLevel(); got != pressureNone {
		t.Errorf("empty server pressure = %d, want none", got)
	}
	fill(6) // 3/4 of 8
	if got := s.pressureLevel(); got != pressureLow {
		t.Errorf("6/8 slots pressure = %d, want low", got)
	}
	fill(7) // 7/8
	if got := s.pressureLevel(); got != pressureHigh {
		t.Errorf("7/8 slots pressure = %d, want high", got)
	}
	fill(8)
	if got := s.pressureLevel(); got != pressureFull {
		t.Errorf("8/8 slots pressure = %d, want full", got)
	}
	// A parked waiter is full pressure regardless of occupancy.
	drained := &Server{met: newServerMetrics(nil), sem: make(chan struct{}, 8)}
	drained.slotWaiters.Add(1)
	if got := drained.pressureLevel(); got != pressureFull {
		t.Errorf("pressure with a waiter = %d, want full", got)
	}
}

// TestShedSpecs pins the ladder order: single-routed tools go at low
// pressure, broadcast tools at high, block-routed tools never — and a
// registry that would shed to nothing is kept whole.
func TestShedSpecs(t *testing.T) {
	specs := []trace.ToolSpec{
		{Name: "lockset", Routing: trace.RouteBlock},
		{Name: "deadlock", Routing: trace.RouteBroadcast},
		{Name: "highlevel", Routing: trace.RouteSingle},
	}
	names := func(specs []trace.ToolSpec) string {
		var out []string
		for _, spec := range specs {
			out = append(out, spec.Name)
		}
		return strings.Join(out, ",")
	}

	kept, shed := shedSpecs(specs, pressureNone)
	if names(kept) != "lockset,deadlock,highlevel" || shed != nil {
		t.Errorf("level 0: kept=%s shed=%v, want everything kept", names(kept), shed)
	}
	kept, shed = shedSpecs(specs, pressureLow)
	if names(kept) != "lockset,deadlock" || strings.Join(shed, ",") != "highlevel" {
		t.Errorf("level 1: kept=%s shed=%v, want highlevel shed", names(kept), shed)
	}
	kept, shed = shedSpecs(specs, pressureFull)
	if names(kept) != "lockset" || strings.Join(shed, ",") != "deadlock,highlevel" {
		t.Errorf("level 3: kept=%s shed=%v, want only lockset kept", names(kept), shed)
	}
	onlyAux := []trace.ToolSpec{{Name: "highlevel", Routing: trace.RouteSingle}}
	kept, shed = shedSpecs(onlyAux, pressureFull)
	if names(kept) != "highlevel" || shed != nil {
		t.Errorf("all-would-shed registry: kept=%s shed=%v, want kept whole", names(kept), shed)
	}
}

// TestKeepPctFor pins the sampling schedule over pressure.
func TestKeepPctFor(t *testing.T) {
	for level, want := range map[int]int{
		pressureNone: 100,
		pressureLow:  100,
		pressureHigh: 75,
		pressureFull: 50,
	} {
		if got := keepPctFor(level); got != want {
			t.Errorf("keepPctFor(%d) = %d, want %d", level, got, want)
		}
	}
}

// refShard is the block partition function the sampler's decisions were
// first defined by: MurmurHash3 fmix32 over the block ID, modulo n.
func refShard(b trace.BlockID, n int) int {
	x := uint32(b)
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return int(x % uint32(n))
}

// TestBlockHashKeepsShardDecisions pins the sampler's per-block decisions:
// for every block ID in 0..4095 and every keep rate the schedule has used,
// keepBlock agrees with the reference partition, and the kept share stays
// close to the rate even over sequential IDs.
func TestBlockHashKeepsShardDecisions(t *testing.T) {
	const ids = 4096
	for _, pct := range []int{25, 50, 75} {
		kept := 0
		for b := trace.BlockID(0); b < ids; b++ {
			got := keepBlock(b, pct)
			if want := refShard(b, 100) < pct; got != want {
				t.Fatalf("keep %d%%: block %d kept=%v, want %v", pct, b, got, want)
			}
			if got {
				kept++
			}
		}
		if lo, hi := ids*pct/100*9/10, ids*pct/100*11/10; kept < lo || kept > hi {
			t.Errorf("keep %d%%: %d of %d blocks kept, want within [%d, %d]", pct, kept, ids, lo, hi)
		}
	}
}

// TestDegradedHeader pins the honesty annotation: absent for a full-coverage
// session (byte-identity depends on it), exact counts otherwise.
func TestDegradedHeader(t *testing.T) {
	if got := degradedHeader(0, nil); got != "" {
		t.Errorf("zero-degradation header = %q, want empty", got)
	}
	if got := degradedHeader(41, nil); got != "== degraded: sampled-out=41 event(s)\n" {
		t.Errorf("sampled-only header = %q", got)
	}
	if got := degradedHeader(0, []string{"highlevel", "deadlock"}); got != "== degraded: tools-shed=highlevel,deadlock\n" {
		t.Errorf("shed-only header = %q", got)
	}
	if got := degradedHeader(7, []string{"highlevel"}); got != "== degraded: sampled-out=7 event(s) tools-shed=highlevel\n" {
		t.Errorf("combined header = %q", got)
	}
}

// TestSnapshotErrorRecorded pins the snapshot-error bugfix: a failed
// incremental snapshot is counted and kept on the session, and the
// "snapshots" query discloses it.
func TestSnapshotErrorRecorded(t *testing.T) {
	sess := &Session{ID: 9, Name: "snapfail"}
	sess.noteSnapshotError(errors.New("quiesce failed"))
	sess.noteSnapshotError(errors.New("quiesce failed again"))
	n, last := sess.SnapshotErrs()
	if n != 2 || last == nil || last.Error() != "quiesce failed again" {
		t.Errorf("SnapshotErrs = (%d, %v), want (2, quiesce failed again)", n, last)
	}
	text := sess.FormatSnapshots()
	if !strings.Contains(text, "(2 failed, last: quiesce failed again)") {
		t.Errorf("snapshots listing hides the failures:\n%s", text)
	}
}

// refReplaySampled is how a sampled session was replayed before the sampler
// became its pipeline's batch filter (engine.Options.Keep): ingest's own
// decode loop, one event at a time, pushing each kept event through the
// pipeline's Sink methods. It stays as the oracle of TestSamplerDifferential.
// The sampler now counts its own drops, so the loop no longer does.
func refReplaySampled(pipe *engine.Sequential, r io.Reader, sam *sampler) (int64, error) {
	dec := tracelog.AcquireDecoder(r)
	defer dec.Release()
	var ev tracelog.Event
	for {
		err := dec.Next(&ev)
		if err == io.EOF {
			return dec.Events(), nil
		}
		if err != nil {
			return dec.Events(), err
		}
		if sam.keep(&ev) {
			ev.Deliver(pipe)
		}
	}
}

// snapReader hands out its input in chunks and calls snap before every
// every'th Read, the way the ingest snapshot trigger snapshots a session
// from inside its stream reads.
type snapReader struct {
	r            io.Reader
	chunk, every int
	reads        int
	snap         func()
}

func (c *snapReader) Read(p []byte) (int, error) {
	if c.reads++; c.reads%c.every == 0 {
		c.snap()
	}
	return c.r.Read(p[:min(len(p), c.chunk)])
}

// sampledRun is everything a sampled session exposes.
type sampledRun struct {
	report  string
	sent    int64 // ReplayLog's return: what the stream carried
	events  int64 // Events() after Close: what was analysed
	dropped int64
	snaps   []string // events, dropped-so-far and manifest of every snapshot
}

// sampledPath is one way of running a sampled session.
type sampledPath int

const (
	pathOracle     sampledPath = iota // refReplaySampled
	pathReplay                        // Keep + ReplayLog, as a sampled session runs
	pathSinkOracle                    // the Sink methods, fed only the kept events
	pathSink                          // Keep + the Sink methods
)

func (p sampledPath) String() string {
	return [...]string{"oracle", "replay", "sink-oracle", "sink"}[p]
}

// runSampled analyses log through the six-tool registry with a sampler
// probing level, along the given path. Every path takes about forty
// snapshots: the replay paths every few reads of a chunked reader, the Sink
// paths every few events.
func runSampled(t *testing.T, log []byte, res trace.Resolver, level func() int, path sampledPath) sampledRun {
	t.Helper()
	sam := newSampler(pressureNone, level)
	opt := engine.Options{Tools: scenario.AllTools(), Resolver: res}
	if path == pathReplay || path == pathSink {
		opt.Keep = sam.keep
	}
	pipe, err := engine.NewSequential(opt)
	if err != nil {
		t.Fatal(err)
	}
	var out sampledRun
	snap := func() {
		col, err := pipe.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		out.snaps = append(out.snaps, fmt.Sprintf("events=%d dropped=%d\n%s", pipe.Events(), sam.dropped, col.Manifest()))
	}
	src := &snapReader{r: bytes.NewReader(log), chunk: 1 + len(log)/40, every: 3, snap: snap}
	switch path {
	case pathOracle:
		out.sent, err = refReplaySampled(pipe, src, sam)
	case pathReplay:
		out.sent, err = pipe.ReplayLog(src)
	case pathSinkOracle, pathSink:
		var total int64
		if total, err = scenario.CountEvents(log); err != nil {
			t.Fatal(err)
		}
		dec := tracelog.NewDecoder(bytes.NewReader(log))
		var ev tracelog.Event
		for err = dec.Next(&ev); err == nil; err = dec.Next(&ev) {
			if out.sent++; out.sent%(1+total/40) == 0 {
				snap()
			}
			if path == pathSink || sam.keep(&ev) {
				ev.Deliver(pipe)
			}
		}
		if err == io.EOF {
			err = nil
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	col, err := pipe.Close()
	if err != nil {
		t.Fatal(err)
	}
	out.report, out.events, out.dropped = col.Format(), pipe.Events(), sam.dropped
	return out
}

// TestSamplerDifferential: a sampled session filtering its pipeline's
// batches (Keep + ReplayLog, and Keep on the Sink-method path) agrees with
// the per-event decode loop it replaced on the report, the dropped count,
// Events(), what ReplayLog returns, and every snapshot manifest — at each
// keep rate, and with a pressure level that moves at every re-probe, so the
// re-probe points must coincide too.
func TestSamplerDifferential(t *testing.T) {
	type input struct {
		name string
		log  []byte
		res  trace.Resolver
	}
	var inputs []input
	for seed := int64(1); seed <= 3; seed++ {
		v, log, err := scenario.Record(scenario.Generate(scenario.GenConfig{Seed: seed}), true, 1)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("scenario-%d", seed), log, v})
	}
	v, log, err := harness.PerfWorkload{Threads: 4, Iters: 500, Slots: 64, Blocks: 64, Seed: 1}.RecordTrace()
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{"perf-4.5", log, v})

	constant := func(level int) func() func() int {
		return func() func() int { return func() int { return level } }
	}
	levels := []struct {
		name  string
		level func() func() int // a fresh probe per run
	}{
		{"keep50", constant(pressureFull)},
		{"keep75", constant(pressureHigh)},
		{"keep100", constant(pressureNone)},
		{"moving", func() func() int {
			probes := 0
			return func() int {
				probes++
				return []int{pressureFull, pressureNone, pressureHigh}[probes%3]
			}
		}},
	}
	for _, in := range inputs {
		for _, lv := range levels {
			if lv.name == "moving" && in.name != "perf-4.5" {
				continue // only the §4.5 trace is long enough to be re-probed
			}
			t.Run(in.name+"/"+lv.name, func(t *testing.T) {
				for _, pair := range [][2]sampledPath{{pathOracle, pathReplay}, {pathSinkOracle, pathSink}} {
					want := runSampled(t, in.log, in.res, lv.level(), pair[0])
					got := runSampled(t, in.log, in.res, lv.level(), pair[1])
					path := pair[1]
					if got.report != want.report {
						t.Errorf("%s: report differs from the oracle:\n--- filtered ---\n%s--- oracle ---\n%s", path, got.report, want.report)
					}
					if got.sent != want.sent || got.events != want.events || got.dropped != want.dropped {
						t.Errorf("%s: sent/events/dropped = %d/%d/%d, oracle %d/%d/%d",
							path, got.sent, got.events, got.dropped, want.sent, want.events, want.dropped)
					}
					if got.sent != got.events+got.dropped {
						t.Errorf("%s: %d carried != %d analysed + %d dropped", path, got.sent, got.events, got.dropped)
					}
					if strings.Join(got.snaps, "") != strings.Join(want.snaps, "") {
						t.Errorf("%s: snapshots differ from the oracle:\n--- filtered ---\n%s\n--- oracle ---\n%s",
							path, strings.Join(got.snaps, "\n"), strings.Join(want.snaps, "\n"))
					}
					if len(got.snaps) == 0 {
						t.Errorf("%s: no snapshot taken", path)
					}
					if lv.name == "keep100" && want.dropped != 0 {
						t.Errorf("%s: %d events dropped at full coverage", path, want.dropped)
					}
					if in.name == "perf-4.5" && lv.name == "keep50" && want.dropped == 0 {
						t.Errorf("%s: nothing dropped; the differential is vacuous", path)
					}
				}
			})
		}
	}
}
