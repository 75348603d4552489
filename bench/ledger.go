package main

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// The layer ledger: every stage of a session measured in this process, from
// the benchmark's own files, on the same inputs the load run streams. A
// round is one pass over the workload's inputs (one session for the
// single-input workloads, the eight SIP cases for sip-proxy); a figure is the
// median over rounds of the round's total, per event or per session.
const (
	ledgerRounds = 5 // rounds of in-process probes
	spanRounds   = 5 // staged sessions of a multi-input workload
	spanSessions = 10
)

// probe is one way of running an input in this process, timed by itself so
// its own set-up stays out. part is a share of the duration the probe wants
// reported separately (the Close phase of a session), zero otherwise.
type probe func(in *input) (total, part time.Duration, err error)

// decodeLoop is the bare Decoder.Next loop over the log.
func decodeLoop(in *input) (time.Duration, time.Duration, error) {
	t0 := time.Now()
	dec := tracelog.NewDecoder(bytes.NewReader(in.Log))
	var ev tracelog.Event
	for {
		err := dec.Next(&ev)
		if err == io.EOF {
			return time.Since(t0), 0, nil
		}
		if err != nil {
			return 0, 0, err
		}
	}
}

// baseTool is a tool that does nothing: Sequential driving it costs decode
// plus dispatch and nothing else.
var baseTool = trace.ToolSpec{
	Name: "base", Routing: trace.RouteBlock,
	Factory: func(trace.Reporter) trace.Sink { return trace.BaseSink{} },
}

func dispatchLoop(in *input) (time.Duration, time.Duration, error) {
	t0 := time.Now()
	seq, err := engine.NewSequential(engine.Options{Tools: []trace.ToolSpec{baseTool}})
	if err != nil {
		return 0, 0, err
	}
	if _, err := seq.ReplayLog(bytes.NewReader(in.Log)); err != nil {
		return 0, 0, err
	}
	_, err = seq.Close()
	return time.Since(t0), 0, err
}

// inProcessSession is what one session costs with no socket and no second
// process: construct, replay, close, format. part is the Close phase.
func inProcessSession(shards int) probe {
	return func(in *input) (time.Duration, time.Duration, error) {
		t0 := time.Now()
		pipe, err := engine.NewPipeline(engine.Options{Tools: tools(), Shards: shards, Resolver: scenario.Resolver(in.Meta)})
		if err != nil {
			return 0, 0, err
		}
		if _, err := pipe.ReplayLog(bytes.NewReader(in.Log)); err != nil {
			pipe.Close()
			return 0, 0, err
		}
		t1 := time.Now()
		col, err := pipe.Close()
		if err != nil {
			return 0, 0, err
		}
		closing := time.Since(t1)
		if text := col.Format(); text != in.Want {
			return 0, 0, fmt.Errorf("in-process report of %s differs from the reference", in.Name)
		}
		return time.Since(t0), closing, nil
	}
}

// addSites is the first-occurrence cost of a warning site: every site of the
// reference report added to an empty collector with the session's resolver,
// SiteKey hashing included.
func addSites(in *input) (time.Duration, time.Duration, error) {
	fresh := report.NewCollector(scenario.Resolver(in.Meta), nil)
	ws := in.ref.Sites()
	t0 := time.Now()
	for _, w := range ws {
		fresh.Add(*w)
	}
	return time.Since(t0), 0, nil
}

// allocs runs a probe once over every input and returns the heap allocations
// and bytes it made.
func allocs(ins []*input, fn probe) (mallocs, bytes float64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, in := range ins {
		if _, _, err := fn(in); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc), nil
}

// measureLayers fills the per-layer metrics that come from this process: the
// micro-measurements, then the staged sessions with their spans. It returns
// the spans for the trace file.
func measureLayers(w workload, ins []*input, outDir string, m map[string]float64) ([]span, error) {
	var events, wire, sites, reportBytes float64
	for _, in := range ins {
		b, err := framedSession(in, true, true)
		if err != nil {
			return nil, err
		}
		events += float64(in.Events)
		wire += float64(len(b))
		sites += float64(in.Sites)
		reportBytes += float64(len(in.Want))
	}
	sessions := float64(len(ins))
	m["tracelog.wire_bytes_per_event"] = wire / events
	m["report.sites_per_session"] = sites / sessions
	m["report.bytes_per_session"] = reportBytes / sessions

	// The same session through an ingest server in this process: what the
	// socket, the idle reader, deframing, admission and the response write
	// add to the in-process session.
	d, err := startInProcess(outDir)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	t0 := time.Now()
	ingested := 0
	probes := []struct {
		name string
		fn   probe
	}{
		{"decode", decodeLoop},
		{"dispatch", dispatchLoop},
		{"seq", inProcessSession(1)},
		{"sharded", inProcessSession(runtime.NumCPU())},
		{"add", addSites},
		{"ingest", func(in *input) (time.Duration, time.Duration, error) {
			ingested++
			s, err := session(d.addr, fmt.Sprintf("ledger-%d", ingested), in, t0)
			return s.End - s.Start, 0, err
		}},
	}
	// The probes take turns inside each round, so that two figures that are
	// subtracted from one another were measured seconds apart, not minutes:
	// the host's speed moves on that scale (README.md, "Bounds").
	total := make(map[string][]float64) // probe → per-round nanoseconds over all inputs
	part := make(map[string][]float64)
	for r := 0; r < ledgerRounds; r++ {
		for _, p := range probes {
			// A probe starts from a collected heap, or it pays for the
			// garbage of the one before it.
			runtime.GC()
			var sumTotal, sumPart time.Duration
			for _, in := range ins {
				t, c, err := p.fn(in)
				if err != nil {
					return nil, fmt.Errorf("%s probe on %s: %w", p.name, in.Name, err)
				}
				sumTotal, sumPart = sumTotal+t, sumPart+c
			}
			total[p.name] = append(total[p.name], float64(sumTotal.Nanoseconds()))
			part[p.name] = append(part[p.name], float64(sumPart.Nanoseconds()))
		}
	}
	minus := func(a, b []float64) []float64 {
		out := make([]float64, len(a))
		for i := range a {
			out[i] = a[i] - b[i]
		}
		return out
	}
	m["tracelog.decode_ns_per_event"] = median(total["decode"]) / events
	m["engine.dispatch_ns_per_event"] = median(minus(total["dispatch"], total["decode"])) / events
	m["engine.seq_ns_per_event"] = median(total["seq"]) / events
	m["engine.close_ns_per_session"] = median(part["seq"]) / sessions
	m["engine.sharded_ns_per_event"] = median(total["sharded"]) / events
	m["report.add_ns_per_site"] = 0
	if sites > 0 {
		m["report.add_ns_per_site"] = median(total["add"]) / sites
	}
	m["ingest.session_ns_per_event"] = median(total["ingest"]) / events
	m["ingest.overhead_ns_per_event"] = median(minus(total["ingest"], total["seq"])) / events

	mallocs, _, err := allocs(ins, decodeLoop)
	if err != nil {
		return nil, err
	}
	m["tracelog.decode_allocs_per_event"] = mallocs / events
	mallocs, bytesAlloc, err := allocs(ins, inProcessSession(1))
	if err != nil {
		return nil, err
	}
	m["engine.seq_allocs_per_event"] = mallocs / events
	m["engine.seq_bytes_per_event"] = bytesAlloc / events

	if err := d.stop(); err != nil {
		return nil, err
	}
	return stagedRounds(w, ins, m, events, sessions)
}

// stagedRounds runs the fixed traced work — ten sessions of a single-input
// workload, five cycles of a multi-input one — after one discarded round
// that fills the process-wide caches (interned tags, decoded metadata
// payloads), and turns span self times into the stage metrics.
func stagedRounds(w workload, ins []*input, m map[string]float64, events, sessions float64) ([]span, error) {
	sts := make([]*staged, len(ins))
	for i, in := range ins {
		st, err := stage(in)
		if err != nil {
			return nil, err
		}
		sts[i] = st
	}
	nRounds := spanSessions
	if len(ins) > 1 {
		nRounds = spanRounds
	}
	evs := make([]tracelog.Event, stageBatch)
	run := func(tr *tracer, rounds int) error {
		for r := 0; r < rounds; r++ {
			for i, st := range sts {
				text, err := stagedSession(tr, r*len(sts)+i, st, evs)
				if err != nil {
					return fmt.Errorf("staged session of %s: %w", st.in.Name, err)
				}
				if text != st.in.Want {
					return fmt.Errorf("staged session of %s: report differs from the reference — the trace would describe a different program", st.in.Name)
				}
			}
		}
		return nil
	}
	if err := run(newTracer(), 1); err != nil {
		return nil, err
	}
	tr := newTracer()
	if err := run(tr, nRounds); err != nil {
		return nil, err
	}

	self := selfTimes(tr.spans)
	// stage[name][round] is the stage's self time summed over the round.
	stageNs := make(map[string][]float64)
	for sess, byName := range self {
		for name, ns := range byName {
			if stageNs[name] == nil {
				stageNs[name] = make([]float64, nRounds)
			}
			stageNs[name][sess/len(sts)] += float64(ns)
		}
	}
	perEvent := func(name string) float64 { return median(stageNs[name]) / events }
	perSession := func(name string) float64 { return median(stageNs[name]) / sessions }
	m["tracelog.deframe_ns_per_event"] = perEvent("tracelog.deframe")
	m["tracelog.metadata_ns_per_session"] = perSession("tracelog.metadata")
	m["engine.construct_ns_per_session"] = perSession("engine.construct")
	for _, spec := range tools() {
		layer := layerOf(spec.Name)
		m[layer+".handle_ns_per_event"] = perEvent(layer + ".handle")
	}
	m["highlevel.finish_ns_per_session"] = perSession("highlevel.finish")
	m["report.merge_ns_per_session"] = perSession("report.merge")
	m["report.format_ns_per_session"] = perSession("report.format")

	// The stage sum leaves out the two transport stages: the in-process
	// session it is compared with reads its log from memory.
	sum := make([]float64, nRounds)
	for name, ns := range stageNs {
		if name == "tracelog.deframe" || name == "tracelog.metadata" {
			continue
		}
		for r, v := range ns {
			sum[r] += v
		}
	}
	m["ledger.stage_sum_ns_per_event"] = median(sum) / events
	m["ledger.coverage"] = m["ledger.stage_sum_ns_per_event"] / m["engine.seq_ns_per_event"]

	// Shares of the whole staged session, for the reader of the run.
	total := 0.0
	for _, ns := range stageNs {
		total += median(ns)
	}
	fmt.Fprintf(os.Stderr, "bench: %s staged self-time shares:", w.Name)
	for _, name := range slices.Sorted(maps.Keys(stageNs)) {
		if share := median(stageNs[name]) / total; share >= 0.005 {
			fmt.Fprintf(os.Stderr, " %s=%.1f%%", name, 100*share)
		}
	}
	fmt.Fprintln(os.Stderr)
	return tr.spans, nil
}
