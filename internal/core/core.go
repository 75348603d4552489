// Package core is the library's public façade: it assembles the virtual
// machine, the tool registry and the report pipeline into a single entry
// point, mirroring the paper's debugging process (Fig. 3): instrument →
// execute on the VM → analyse the warnings.
//
// A minimal session:
//
//	res, err := core.Run(core.Options{}, func(t *vm.Thread) {
//	    v := t.VM()
//	    c := v.NewMutex("counter")
//	    b := t.Alloc(4, "counter")
//	    ...
//	})
//	fmt.Print(res.Report())
//
// Every analysis is a registered tool: the race detectors (lock-set, DJIT,
// hybrid) and the auxiliary checkers (lock-order deadlock detection,
// memcheck, view-consistency) all run over a single pass of the event
// stream through one engine pipeline. The paper's three evaluation
// configurations are available as OptionsOriginal, OptionsHWLC and
// OptionsHWLCDR.
package core

import (
	"fmt"
	"strings"

	"repro/internal/deadlock"
	"repro/internal/engine"
	"repro/internal/highlevel"
	"repro/internal/hybrid"
	"repro/internal/lockset"
	"repro/internal/memcheck"
	"repro/internal/report"
	"repro/internal/suppress"
	"repro/internal/trace"
	"repro/internal/vectorclock"
	"repro/internal/vm"
)

// Options configures a checking run.
type Options struct {
	// Tools is the full tool registry for the run: every listed tool runs
	// over one pass of the event stream (see trace.ToolSpec, the Spec
	// constructors in the detector packages and ParseTools). Empty runs the
	// lock-set detector alone, configured by Lockset.
	Tools []trace.ToolSpec
	// Lockset configures the lock-set detector. The zero value (and only
	// the zero value — see lockset.Config.IsZero) defaults to the paper's
	// strongest configuration, HWLC+DR.
	Lockset lockset.Config
	// DJIT configures the happens-before detector ParseTools builds.
	DJIT vectorclock.Config
	// Hybrid configures the hybrid detector ParseTools builds.
	Hybrid hybrid.Config
	// Suppressions holds suppression rules in the Valgrind-like format
	// accepted by internal/suppress.
	Suppressions string
	// Seed drives the deterministic scheduler.
	Seed int64
	// Quantum is the scheduling quantum (1 = preempt at every operation).
	Quantum int
	// MaxSteps bounds the run.
	MaxSteps int64
}

// OptionsOriginal mirrors the paper's first experimental configuration.
func OptionsOriginal() Options { return Options{Lockset: lockset.ConfigOriginal()} }

// OptionsHWLC mirrors the corrected-bus-lock configuration.
func OptionsHWLC() Options { return Options{Lockset: lockset.ConfigHWLC()} }

// OptionsHWLCDR mirrors the full HWLC+DR configuration.
func OptionsHWLCDR() Options { return Options{Lockset: lockset.ConfigHWLCDR()} }

// locksetSpec resolves the lock-set configuration: only the explicit zero
// value defaults to the paper's best.
func (opt Options) locksetSpec() trace.ToolSpec {
	cfg := opt.Lockset
	if cfg.IsZero() {
		cfg = lockset.ConfigHWLCDR()
	}
	return lockset.Spec(cfg)
}

// djitSpec resolves the happens-before configuration: only the explicit zero
// value (vectorclock.Config.IsZero) defaults to standard DJIT; any partially
// set config is taken as intentional and passed through verbatim.
func (opt Options) djitSpec() trace.ToolSpec {
	cfg := opt.DJIT
	if cfg.IsZero() {
		cfg = vectorclock.DefaultConfig()
	}
	return vectorclock.Spec(cfg)
}

// toolSpecs resolves Options into the effective registry: Tools verbatim
// when set, otherwise the lock-set detector alone.
func (opt Options) toolSpecs() []trace.ToolSpec {
	if len(opt.Tools) > 0 {
		return opt.Tools
	}
	return []trace.ToolSpec{opt.locksetSpec()}
}

// ToolNames lists the names accepted by ParseTools.
var ToolNames = []string{"lockset", "djit", "hybrid", "deadlock", "memcheck", "highlevel"}

// ParseTools converts a comma-separated tool list — e.g.
// "lockset,djit,deadlock", or "all" for every known tool — into registry
// specs, using the receiver's per-tool configurations (Lockset, DJIT,
// Hybrid) for the detectors that have one. The result is suitable for
// Options.Tools or engine.Options.Tools.
func (opt Options) ParseTools(list string) ([]trace.ToolSpec, error) {
	var specs []trace.ToolSpec
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		switch name {
		case "":
			continue
		case "all":
			all, err := opt.ParseTools(strings.Join(ToolNames, ","))
			if err != nil {
				return nil, err
			}
			specs = append(specs, all...)
		case "lockset":
			specs = append(specs, opt.locksetSpec())
		case "djit":
			specs = append(specs, opt.djitSpec())
		case "hybrid":
			specs = append(specs, hybrid.Spec(opt.Hybrid))
		case "deadlock":
			specs = append(specs, deadlock.Spec(deadlock.Config{}))
		case "memcheck":
			specs = append(specs, memcheck.Spec(memcheck.Config{}))
		case "highlevel":
			specs = append(specs, highlevel.Spec(highlevel.Config{}))
		default:
			return nil, fmt.Errorf("core: unknown tool %q (known: %s, all)", name, strings.Join(ToolNames, ", "))
		}
	}
	return specs, nil
}

// ToolFactory validates a -tools list once and returns a constructor that
// builds a fresh registry per call — the shape long-running consumers need
// (the ingest server instantiates the registry once per session). The
// receiver's per-tool configurations apply exactly as in ParseTools.
func (opt Options) ToolFactory(list string) (func() []trace.ToolSpec, error) {
	if _, err := opt.ParseTools(list); err != nil {
		return nil, err
	}
	return func() []trace.ToolSpec {
		specs, _ := opt.ParseTools(list) // validated above
		return specs
	}, nil
}

// Result is the outcome of a checking run.
type Result struct {
	// Collector holds the deduplicated warnings of every registered tool,
	// merged in global first-seen order.
	Collector *report.Collector
	// VM is the machine the program ran on (stacks and blocks resolve
	// against it).
	VM *vm.VM
	// Err is the guest execution error, if any (including deadlock), or the
	// first tool panic caught by the pipeline.
	Err error
	// Steps is the number of guest operations executed.
	Steps int64
	// Summaries holds the per-tool end-of-run counter rollups of every
	// registered tool implementing trace.Summarizer, keyed by tool report
	// name (e.g. memcheck's error and leak totals).
	Summaries map[string]trace.ToolSummary
	// LocksetDetector is set when a lock-set detector ran (the first one
	// registered), for its dynamic counters.
	LocksetDetector *lockset.Detector
	// DeadlockDetector is set when the lock-order tool ran.
	DeadlockDetector *deadlock.Detector
	// MemcheckDetector is set when memcheck ran.
	MemcheckDetector *memcheck.Detector
	// HighLevelDetector is set when the view-consistency checker ran.
	HighLevelDetector *highlevel.Detector
}

// Locations returns the number of distinct reported locations.
func (r *Result) Locations() int { return r.Collector.Locations() }

// Report renders the warnings in Helgrind-like format.
func (r *Result) Report() string { return r.Collector.Format() }

// Run executes the guest program under the configured tools. The returned
// error covers configuration problems only; guest failures (panic, deadlock,
// step limit) are reported in Result.Err so that warnings collected up to
// that point remain accessible.
func Run(opt Options, body func(*vm.Thread)) (*Result, error) {
	specs := opt.toolSpecs()
	machine := vm.New(vm.Options{Seed: opt.Seed, Quantum: opt.Quantum, MaxSteps: opt.MaxSteps})

	var sup report.Suppressor
	if opt.Suppressions != "" {
		f, err := suppress.ParseString(opt.Suppressions)
		if err != nil {
			return nil, fmt.Errorf("core: bad suppressions: %w", err)
		}
		sup = f
	}
	res := &Result{VM: machine}

	// The registry consumes the VM's event stream live, in one pass.
	pipe, err := engine.NewSequential(engine.Options{Tools: specs, Resolver: machine, Suppressor: sup})
	if err != nil {
		return nil, fmt.Errorf("core: engine: %w", err)
	}
	machine.AddTool(pipe)

	res.Err = machine.Run(body)
	res.Steps = machine.Steps()
	merged, cerr := pipe.Close()
	if cerr != nil && res.Err == nil {
		res.Err = cerr
	}
	res.Collector = merged
	res.Summaries = pipe.Summaries()
	// Surface the concrete detector instances for their dynamic counters.
	for _, spec := range specs {
		switch det := pipe.Tool(spec.Name).(type) {
		case *lockset.Detector:
			if res.LocksetDetector == nil {
				res.LocksetDetector = det
			}
		case *deadlock.Detector:
			if res.DeadlockDetector == nil {
				res.DeadlockDetector = det
			}
		case *memcheck.Detector:
			if res.MemcheckDetector == nil {
				res.MemcheckDetector = det
			}
		case *highlevel.Detector:
			if res.HighLevelDetector == nil {
				res.HighLevelDetector = det
			}
		}
	}
	return res, nil
}

// Tool re-exports for convenience so that callers can attach custom sinks.
type Tool = trace.Sink
