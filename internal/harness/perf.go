package harness

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/lockset"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/tracelog"
	"repro/internal/vectorclock"
	"repro/internal/vm"
)

// The §4.5 experiment: the same logical workload executed natively, on the
// bare VM, and on the VM with analysis attached. The paper reports ~8-10×
// for Valgrind alone and 20-30× with Helgrind — i.e. the *analysis* costs a
// further ~2.5-3× on top of the virtual machine. Our VM is a discrete-event
// simulator rather than a JIT, so its absolute slowdown against native Go is
// much larger than Valgrind's; the comparable, preserved quantity is the
// analysis-on-VM ratio.

// PerfMode identifies one measurement configuration.
type PerfMode string

// Measurement configurations.
const (
	PerfNative      PerfMode = "native"
	PerfVM          PerfMode = "vm"
	PerfVMLockset   PerfMode = "vm+lockset"
	PerfVMLocksetDR PerfMode = "vm+lockset+dr"
	PerfVMDJIT      PerfMode = "vm+djit"
)

// PerfResult is one measurement.
type PerfResult struct {
	Mode     PerfMode
	Duration time.Duration
	Steps    int64 // guest operations (0 for native)
	Ops      int64 // logical workload operations
}

// PerfWorkload parameterises the §4.5 workload: worker threads hammering a
// shared table under a lock, with private work in between.
type PerfWorkload struct {
	Threads int
	Iters   int
	Slots   int
	Seed    int64
	// Blocks > 1 allocates the table as that many separate heap blocks
	// instead of one, so per-block detector state spans many blocks. 0 or 1
	// keeps the classic single-block table.
	Blocks int
	// Racy additionally hammers an unlocked counter so detectors have
	// something to report. Off for the §4.5 benchmarks (whose trajectories
	// must stay comparable across PRs); used by determinism cross-checks.
	Racy bool
	// MeasureAllocs additionally records allocs/event and bytes/event for
	// each replay measurement (perfbench -alloc). It forces a GC before
	// every measured run, which perturbs wall-clock numbers slightly — off
	// by default so pure-latency trajectories stay comparable.
	MeasureAllocs bool
}

// DefaultPerfWorkload returns a workload sized for a quick benchmark run.
func DefaultPerfWorkload() PerfWorkload {
	return PerfWorkload{Threads: 4, Iters: 2000, Slots: 64, Seed: 1}
}

// ops returns the logical operation count.
func (w PerfWorkload) ops() int64 { return int64(w.Threads) * int64(w.Iters) }

// RunNative executes the workload with plain goroutines and sync.Mutex —
// the "program run without Helgrind" baseline.
func (w PerfWorkload) RunNative() PerfResult {
	start := time.Now()
	var mu sync.Mutex
	table := make([]uint64, w.Slots)
	counter := uint64(0)
	var wg sync.WaitGroup
	for th := 0; th < w.Threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			local := uint64(th)
			for i := 0; i < w.Iters; i++ {
				mu.Lock()
				slot := (th*w.Iters + i) % w.Slots
				table[slot] += local
				counter++
				mu.Unlock()
				local = local*1664525 + 1013904223 // private work
			}
		}(th)
	}
	wg.Wait()
	_ = counter
	return PerfResult{Mode: PerfNative, Duration: time.Since(start), Ops: w.ops()}
}

// guestBody is the same workload expressed against the VM API. With
// w.Blocks > 1 the table is split across that many blocks (same slot count,
// same access sequence).
func (w PerfWorkload) guestBody(v *vm.VM) func(*vm.Thread) {
	return func(main *vm.Thread) {
		mu := v.NewMutex("table")
		nBlocks := w.Blocks
		if nBlocks < 1 {
			nBlocks = 1
		}
		if nBlocks > w.Slots {
			nBlocks = w.Slots
		}
		perBlock := (w.Slots + nBlocks - 1) / nBlocks
		blocks := make([]*vm.Block, nBlocks)
		for i := range blocks {
			blocks[i] = main.Alloc(perBlock*8, fmt.Sprintf("perf-table-%d", i))
		}
		counter := main.Alloc(8, "perf-counter")
		var racy *vm.Block
		if w.Racy {
			racy = main.Alloc(8, "perf-racy")
		}
		workers := make([]*vm.Thread, w.Threads)
		for th := 0; th < w.Threads; th++ {
			th := th
			workers[th] = main.Go(fmt.Sprintf("w%d", th), func(t *vm.Thread) {
				local := uint64(th)
				for i := 0; i < w.Iters; i++ {
					mu.Lock(t)
					slot := (th*w.Iters + i) % w.Slots
					b := blocks[slot/perBlock]
					off := (slot % perBlock) * 8
					b.Store64(t, off, b.Load64(t, off)+local)
					counter.Store64(t, 0, counter.Load64(t, 0)+1)
					mu.Unlock(t)
					if racy != nil {
						racy.Store64(t, 0, local) // unlocked on purpose
					}
					local = local*1664525 + 1013904223
				}
			})
		}
		for _, t := range workers {
			main.Join(t)
		}
	}
}

// RunVM executes the workload on the VM with the given analysis mode.
func (w PerfWorkload) RunVM(mode PerfMode) (PerfResult, error) {
	v := vm.New(vm.Options{Seed: w.Seed, Quantum: 10, MaxSteps: 500_000_000})
	col := report.NewCollector(v, nil)
	switch mode {
	case PerfVM:
		// bare machine
	case PerfVMLockset:
		v.AddTool(lockset.New(lockset.ConfigOriginal(), col))
	case PerfVMLocksetDR:
		v.AddTool(lockset.New(lockset.ConfigHWLCDR(), col))
	case PerfVMDJIT:
		v.AddTool(vectorclock.New(vectorclock.DefaultConfig(), col))
	default:
		return PerfResult{}, fmt.Errorf("harness: RunVM does not support mode %q", mode)
	}
	start := time.Now()
	if err := v.Run(w.guestBody(v)); err != nil {
		return PerfResult{}, err
	}
	return PerfResult{Mode: mode, Duration: time.Since(start), Steps: v.Steps(), Ops: w.ops()}, nil
}

// Overhead runs the full §4.5 matrix.
func (w PerfWorkload) Overhead() ([]PerfResult, error) {
	out := []PerfResult{w.RunNative()}
	for _, mode := range []PerfMode{PerfVM, PerfVMLockset, PerfVMLocksetDR, PerfVMDJIT} {
		r, err := w.RunVM(mode)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ReplayResult is one offline-replay measurement: the recorded workload
// trace analysed by one detector configuration.
type ReplayResult struct {
	Config string `json:"config"`
	// Mode is "sequential". Documents from before the sharded engine was
	// removed also hold "parallel-N" rows, with Shards set to N; new rows
	// always carry 1.
	Mode      string  `json:"mode"`
	Shards    int     `json:"shards"`
	Events    int64   `json:"events"`
	NsTotal   int64   `json:"ns_total"`
	NsPerEvt  float64 `json:"ns_per_event"`
	Locations int     `json:"locations"`
	// AllocsPerEvt/BytesPerEvt are heap allocation rates across the whole
	// measured run (decode + dispatch + analysis), present only with
	// PerfWorkload.MeasureAllocs.
	AllocsPerEvt float64 `json:"allocs_per_event,omitempty"`
	BytesPerEvt  float64 `json:"bytes_per_event,omitempty"`
}

// RecordTrace executes the workload once on the VM with only the trace
// recorder attached and returns the machine (for stack/block resolution)
// plus the encoded binary log. Benchmarks that replay the same trace many
// times (best-of repetitions) should record once with
// this and hand the log to the *Log variants, instead of re-executing the
// deterministic guest on every repetition.
func (w PerfWorkload) RecordTrace() (*vm.VM, []byte, error) {
	var buf bytes.Buffer
	rec := tracelog.NewRecorder(&buf)
	v := vm.New(vm.Options{Seed: w.Seed, Quantum: 10, MaxSteps: 500_000_000})
	v.AddTool(rec)
	if err := v.Run(w.guestBody(v)); err != nil {
		return nil, nil, err
	}
	if err := rec.Flush(); err != nil {
		return nil, nil, err
	}
	return v, buf.Bytes(), nil
}

// ReplayBench records the workload's trace once, then measures offline
// analysis throughput (tracelog.Replay into the bare detector) for every
// paper configuration.
func (w PerfWorkload) ReplayBench() ([]ReplayResult, error) {
	v, log, err := w.RecordTrace()
	if err != nil {
		return nil, err
	}
	return w.ReplayBenchLog(v, log)
}

// ReplayBenchLog is ReplayBench over an already-recorded trace.
func (w PerfWorkload) ReplayBenchLog(v *vm.VM, log []byte) ([]ReplayResult, error) {
	var out []ReplayResult
	for _, det := range PaperConfigs() {
		var meter *allocMeter
		if w.MeasureAllocs {
			meter = startAllocMeter()
		}
		start := time.Now()
		col := report.NewCollector(v, nil)
		events, err := tracelog.Replay(bytes.NewReader(log), lockset.New(det.Cfg, col))
		if err != nil {
			return nil, err
		}
		dur := time.Since(start)
		res := ReplayResult{
			Config: det.Name, Mode: "sequential", Shards: 1, Events: events,
			NsTotal: dur.Nanoseconds(), NsPerEvt: float64(dur.Nanoseconds()) / float64(events),
			Locations: col.Locations(),
		}
		if meter != nil {
			res.AllocsPerEvt, res.BytesPerEvt = meter.perEvent(events)
		}
		out = append(out, res)
	}
	return out, nil
}

// PaperConfigSpecs returns the three Fig. 6 lock-set configurations as
// independently named registry tools (the column name doubles as the report
// name), so one engine pass can evaluate all three columns over a single
// decode of the trace — the paper's "replay the trace N times" comparison
// collapsed into one.
func PaperConfigSpecs() []trace.ToolSpec {
	specs := make([]trace.ToolSpec, 0, 3)
	for _, det := range PaperConfigs() {
		cfg := det.Cfg
		cfg.Tool = det.Name
		specs = append(specs, lockset.Spec(cfg))
	}
	return specs
}

// OnePassResult is one single-decode multi-tool replay measurement: every
// registered tool analysed the trace concurrently in one pass.
type OnePassResult struct {
	// Mode and Shards follow ReplayResult: new rows are "sequential" with
	// Shards 1.
	Mode      string         `json:"mode"`
	Shards    int            `json:"shards"`
	Tools     []string       `json:"tools"`
	Events    int64          `json:"events"`
	NsTotal   int64          `json:"ns_total"`
	NsPerEvt  float64        `json:"ns_per_event"`
	Locations map[string]int `json:"locations_by_tool"`
	// AllocsPerEvt/BytesPerEvt are heap allocation rates across the whole
	// measured run, present only with PerfWorkload.MeasureAllocs.
	AllocsPerEvt float64 `json:"allocs_per_event,omitempty"`
	BytesPerEvt  float64 `json:"bytes_per_event,omitempty"`
	// ToolNs is the wall time spent inside each tool's handlers
	// (engine.Sequential.ToolTimes). The residual against NsTotal is decode,
	// dispatch and the end-of-stream passes.
	ToolNs map[string]int64 `json:"tool_ns,omitempty"`
}

// OnePassReplay records the workload's trace once, then measures the
// single-decode multi-tool replay: all given tools run over one pass of the
// log through engine.Sequential. The per-tool location counts double as a
// determinism cross-check — they must agree with the equivalent
// one-tool-per-replay runs.
func (w PerfWorkload) OnePassReplay(specs []trace.ToolSpec) ([]OnePassResult, error) {
	v, log, err := w.RecordTrace()
	if err != nil {
		return nil, err
	}
	return w.OnePassReplayLog(v, log, specs)
}

// OnePassReplayLog is OnePassReplay over an already-recorded trace.
func (w PerfWorkload) OnePassReplayLog(v *vm.VM, log []byte, specs []trace.ToolSpec) ([]OnePassResult, error) {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}

	var meter *allocMeter
	if w.MeasureAllocs {
		meter = startAllocMeter()
	}
	start := time.Now()
	seq, err := engine.NewSequential(engine.Options{Tools: specs, Resolver: v})
	if err != nil {
		return nil, err
	}
	events, err := seq.ReplayLog(bytes.NewReader(log))
	if err != nil {
		return nil, err
	}
	col, err := seq.Close()
	if err != nil {
		return nil, err
	}
	dur := time.Since(start)
	out := []OnePassResult{{
		Mode: "sequential", Shards: 1, Tools: names, Events: events,
		NsTotal: dur.Nanoseconds(), NsPerEvt: float64(dur.Nanoseconds()) / float64(events),
		Locations: col.LocationsByTool(),
		ToolNs:    seq.ToolTimes(),
	}}
	if meter != nil {
		out[0].AllocsPerEvt, out[0].BytesPerEvt = meter.perEvent(events)
	}
	return out, nil
}

// FormatOverhead renders the measurements with slowdowns relative to native
// and to the bare VM.
func FormatOverhead(results []PerfResult) string {
	var native, bare time.Duration
	for _, r := range results {
		switch r.Mode {
		case PerfNative:
			native = r.Duration
		case PerfVM:
			bare = r.Duration
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s %12s %12s %10s\n", "mode", "duration", "vs native", "vs bare VM", "steps")
	for _, r := range results {
		vsNative, vsBare := "-", "-"
		if native > 0 && r.Mode != PerfNative {
			vsNative = fmt.Sprintf("%.1fx", float64(r.Duration)/float64(native))
		}
		if bare > 0 && r.Mode != PerfNative && r.Mode != PerfVM {
			vsBare = fmt.Sprintf("%.2fx", float64(r.Duration)/float64(bare))
		}
		fmt.Fprintf(&b, "%-16s %12s %12s %12s %10d\n", r.Mode, r.Duration.Round(10*time.Microsecond), vsNative, vsBare, r.Steps)
	}
	b.WriteString("\npaper (§4.5): VM alone 8-10x native; VM+analysis 20-30x native (~2.5-3x over the VM).\n")
	b.WriteString("this substrate: the VM is a discrete-event simulator, so 'vs native' is inflated;\n")
	b.WriteString("the preserved quantity is the analysis overhead over the bare VM.\n")
	return b.String()
}
