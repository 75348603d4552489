package harness

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/lockset"
	"repro/internal/report"
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

// RecordTrace executes the workload once on the VM with only the trace
// recorder attached and returns the machine (for stack/block resolution)
// plus the encoded binary log. Benchmarks that replay the same trace many
// times record once with this instead of re-executing the deterministic
// guest on every repetition.
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
