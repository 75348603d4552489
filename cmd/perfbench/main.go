// Command perfbench regenerates the §4.5 overhead comparison: the same
// workload natively, on the bare VM, and on the VM with each analysis
// attached. It also measures offline replay throughput per detector
// configuration, and the one-decode comparative mode: all three paper
// configurations (plus any extra -tools) analysed in a single pass over the
// trace, instead of replaying it once per configuration.
//
// With -ingest it additionally measures the live trace-ingest daemon
// (internal/ingest): the recorded workload trace streamed over real loopback
// connections into a private server, at each -ingest-sessions concurrency
// level (default 1, 8 and 64 concurrent sessions), reporting aggregate
// events/sec per level.
//
// With -json the results are emitted as a machine-readable document
// (harness.BenchDoc: ns/event per detector config), so successive runs can
// track the performance trajectory in BENCH_*.json files. The document
// records GOMAXPROCS and NumCPU, so a trajectory measured on a 1-CPU
// container is distinguishable from a multi-core run. -alloc adds
// allocs/event and bytes/event to every replay row. -check FILE validates an
// existing document against the current schema and exits — the CI smoke for
// committed BENCH files.
//
// Usage:
//
//	perfbench
//	perfbench -threads 8 -iters 5000
//	perfbench -json -alloc -ingest > BENCH_$(date +%F).json
//	perfbench -check BENCH_2026-08-07.json
//	perfbench -tools lockset,djit,deadlock,memcheck,highlevel
//	perfbench -ingest -ingest-sessions 1,8,64
//
// The text output ends the one-pass comparative mode with a per-tool time
// attribution table (engine.Sequential.ToolTimes; the residual is decode,
// dispatch, the end-of-stream passes and the merge).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
)

func main() {
	var (
		threads        = flag.Int("threads", 4, "guest worker threads")
		iters          = flag.Int("iters", 2000, "iterations per thread")
		slots          = flag.Int("slots", 64, "shared table slots")
		seed           = flag.Int64("seed", 1, "scheduler seed")
		repeat         = flag.Int("repeat", 3, "repetitions (best run reported)")
		tools          = flag.String("tools", "", "extra tools to add to the one-pass comparative replay (comma-separated, e.g. djit,deadlock,memcheck; 'all' for every tool)")
		asJSON         = flag.Bool("json", false, "emit machine-readable JSON instead of the text table")
		alloc          = flag.Bool("alloc", false, "also measure allocs/event and bytes/event per replay measurement")
		check          = flag.String("check", "", "validate an existing BENCH JSON file against the current schema and exit")
		ingest         = flag.Bool("ingest", false, "also measure live-ingest throughput through the trace-ingest server")
		ingestSessions = flag.String("ingest-sessions", "1,8,64", "comma-separated concurrent session counts for -ingest")
		overload       = flag.Bool("overload", false, "also measure the overload workload: a flood of sessions against a small server with bounded admission and adaptive degradation")
		overloadN      = flag.Int("overload-sessions", 64, "concurrent sessions in the -overload flood")
		overloadSlots  = flag.Int("overload-max", 4, "server MaxSessions for the -overload flood")
	)
	flag.Parse()
	if *repeat < 1 {
		*repeat = 1
	}

	if *check != "" {
		data, err := os.ReadFile(*check)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		doc, err := harness.ParseBenchDoc(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *check, err)
			os.Exit(1)
		}
		fmt.Printf("%s: ok (schema %d, %d replay rows, %d one-pass rows, %d ingest levels)\n",
			*check, doc.Schema, len(doc.Replay), len(doc.OnePass), len(doc.Ingest))
		return
	}

	// The §4.5 overhead matrix keeps the classic single-block table so its
	// ratios stay comparable with earlier measurements; only the replay
	// benchmark spreads the table across blocks.
	w := harness.PerfWorkload{Threads: *threads, Iters: *iters, Slots: *slots, Seed: *seed}
	wr := w
	wr.Blocks = *slots
	wr.MeasureAllocs = *alloc
	best := map[harness.PerfMode]harness.PerfResult{}
	for r := 0; r < *repeat; r++ {
		results, err := w.Overhead()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		for _, res := range results {
			if prev, ok := best[res.Mode]; !ok || res.Duration < prev.Duration {
				best[res.Mode] = res
			}
		}
	}
	ordered := []harness.PerfMode{
		harness.PerfNative, harness.PerfVM, harness.PerfVMLockset,
		harness.PerfVMLocksetDR, harness.PerfVMDJIT,
	}
	out := make([]harness.PerfResult, 0, len(ordered))
	for _, m := range ordered {
		out = append(out, best[m])
	}

	// The replay benchmarks analyse a recorded trace, and recording is
	// seeded-deterministic: record once, replay every repetition from the
	// same log instead of re-executing the guest per repeat.
	rvm, rlog, err := wr.RecordTrace()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record:", err)
		os.Exit(1)
	}

	// ReplayBench returns rows in a fixed order (one per config), so best-of
	// selection aligns by index.
	var replay []harness.ReplayResult
	for r := 0; r < *repeat; r++ {
		rr, err := wr.ReplayBenchLog(rvm, rlog)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: replay:", err)
			os.Exit(1)
		}
		if replay == nil {
			replay = rr
			continue
		}
		for i, res := range rr {
			if res.NsTotal < replay[i].NsTotal {
				replay[i] = res
			}
		}
	}

	// One-decode comparative mode: the three paper configurations — plus any
	// extra -tools — registered side by side, so the trace is decoded once
	// instead of once per configuration.
	specs := harness.PaperConfigSpecs()
	if *tools != "" {
		extra, err := core.Options{}.ParseTools(*tools)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		specs = append(specs, extra...)
	}
	var onePass []harness.OnePassResult
	for r := 0; r < *repeat; r++ {
		op, err := wr.OnePassReplayLog(rvm, rlog, specs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: one-pass:", err)
			os.Exit(1)
		}
		if onePass == nil {
			onePass = op
			continue
		}
		for i, res := range op {
			if res.NsTotal < onePass[i].NsTotal {
				onePass[i] = res
			}
		}
	}

	// Live-ingest throughput: the same recorded trace streamed concurrently
	// into a private ingest server, once per session count. The full
	// six-tool registry runs per session, like a production daemon would.
	var ingestRows []harness.IngestResult
	if *ingest {
		counts, err := parseSessionCounts(*ingestSessions)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		ingestTools, err := (core.Options{}).ToolFactory("all")
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		ingestRows, err = harness.IngestBenchLog(rlog, ingestTools, counts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: ingest:", err)
			os.Exit(1)
		}
	}

	// Overload workload: flood a deliberately small server and measure the
	// degradation — completions vs busy rejections, rejection latency, shed
	// coverage. Admission is bounded tightly so the flood actually rejects.
	var overloadRows []harness.OverloadResult
	if *overload {
		overloadTools, err := (core.Options{}).ToolFactory("all")
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		row, err := harness.OverloadBenchLog(rlog, overloadTools, *overloadN, *overloadSlots, 250*time.Millisecond)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: overload:", err)
			os.Exit(1)
		}
		overloadRows = append(overloadRows, row)
	}

	if *asJSON {
		doc := harness.BenchDoc{
			Schema: harness.BenchSchemaVersion, Date: time.Now().UTC().Format("2006-01-02"),
			Threads: *threads, Iters: *iters, Slots: *slots, Blocks: wr.Blocks,
			Seed: *seed, GoMaxProc: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Shards: 1,
			Replay: replay, OnePass: onePass, Ingest: ingestRows,
			Overload: overloadRows,
		}
		for _, r := range out {
			row := harness.OverheadRow{Mode: string(r.Mode), NsTotal: r.Duration.Nanoseconds(), Steps: r.Steps, Ops: r.Ops}
			if r.Ops > 0 {
				row.NsPerOp = float64(r.Duration.Nanoseconds()) / float64(r.Ops)
			}
			doc.Overhead = append(doc.Overhead, row)
		}
		if err := doc.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("§4.5 overhead, %d threads x %d iterations (best of %d):\n\n", *threads, *iters, *repeat)
	fmt.Print(harness.FormatOverhead(out))
	fmt.Printf("\noffline replay, ns/event (best of %d, %d events):\n\n", *repeat, replay[0].Events)
	if *alloc {
		fmt.Printf("%-10s %14s %16s\n", "config", "ns/event", "allocs/event")
	} else {
		fmt.Printf("%-10s %14s\n", "config", "ns/event")
	}
	var seqTotal int64
	for _, r := range replay {
		if *alloc {
			fmt.Printf("%-10s %14.1f %16.3f\n", r.Config, r.NsPerEvt, r.AllocsPerEvt)
		} else {
			fmt.Printf("%-10s %14.1f\n", r.Config, r.NsPerEvt)
		}
		seqTotal += r.NsTotal
	}
	fmt.Printf("\none-decode comparative mode: %d tool(s) in one pass (%d events):\n\n", len(specs), onePass[0].Events)
	fmt.Printf("%-14s %14s %14s\n", "mode", "ns/event", "locations")
	for _, op := range onePass {
		names := make([]string, 0, len(op.Locations))
		for n := range op.Locations {
			names = append(names, n)
		}
		sort.Strings(names)
		locs := ""
		for i, n := range names {
			if i > 0 {
				locs += " "
			}
			locs += fmt.Sprintf("%s=%d", n, op.Locations[n])
		}
		fmt.Printf("%-14s %14.1f   %s\n", op.Mode, op.NsPerEvt, locs)
	}
	for _, op := range onePass {
		names := make([]string, 0, len(op.ToolNs))
		var toolTotal int64
		for n, ns := range op.ToolNs {
			names = append(names, n)
			toolTotal += ns
		}
		sort.Strings(names)
		fmt.Printf("\nper-tool time, %s mode (%d events):\n\n", op.Mode, op.Events)
		fmt.Printf("%-14s %14s %12s\n", "tool", "ns/event", "share")
		for _, n := range names {
			fmt.Printf("%-14s %14.1f %11.1f%%\n", n,
				float64(op.ToolNs[n])/float64(op.Events), float64(op.ToolNs[n])/float64(op.NsTotal)*100)
		}
		if resid := op.NsTotal - toolTotal; resid > 0 {
			fmt.Printf("%-14s %14.1f %11.1f%%   (decode, dispatch, Finish, merge)\n", "residual",
				float64(resid)/float64(op.Events), float64(resid)/float64(op.NsTotal)*100)
		}
	}
	if *tools == "" {
		// Only apples to apples: with extra -tools the one-pass run analyses
		// more than the three per-config replays do.
		fmt.Printf("\nvs %d per-config sequential replays: %.2fx the decode+analysis time in one pass\n",
			len(specs), float64(onePass[0].NsTotal)/float64(seqTotal))
	}
	if len(ingestRows) > 0 {
		fmt.Printf("\nlive ingest (all six tools per session, %d events/trace):\n\n",
			ingestRows[0].Events/int64(ingestRows[0].Sessions))
		fmt.Printf("%-10s %14s %14s %14s\n", "sessions", "events", "wall time", "events/sec")
		for _, r := range ingestRows {
			fmt.Printf("%-10d %14d %14s %14.0f\n", r.Sessions, r.Events,
				time.Duration(r.NsTotal).Round(time.Millisecond).String(), r.EventsPerSec)
		}
	}
	for _, r := range overloadRows {
		fmt.Printf("\noverload flood (%d sessions vs %d slots, sampling + ladder on):\n\n", r.Sessions, r.MaxSessions)
		fmt.Printf("  completed=%d rejected=%d degraded=%d sampled-out=%d wall=%s worst-rejection=%s\n",
			r.Completed, r.Rejected, r.DegradedSessions, r.SampledOut,
			time.Duration(r.NsTotal).Round(time.Millisecond),
			time.Duration(r.MaxRejectNs).Round(time.Millisecond))
	}
}

// parseSessionCounts parses "1,8,64" into ints.
func parseSessionCounts(list string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -ingest-sessions entry %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -ingest-sessions")
	}
	return out, nil
}
