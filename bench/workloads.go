package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cppmodel"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/libc"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sip"
	"repro/internal/sipp"
	"repro/internal/trace"
	"repro/internal/tracelog"
	"repro/internal/vm"
)

// input is one distinct session a workload streams: the recorded binary
// log, the recording VM's tables when the workload streams metadata, and the
// reference report every server answer for this log must equal.
type input struct {
	Name   string
	Log    []byte
	Meta   *tracelog.Metadata // nil: the session streams no metadata frames
	Events int64
	Want   string // reference report (offline replay, same resolver tables)
	Sites  int    // distinct warning sites in the reference report
	ref    *report.Collector
}

// workload is one traffic mix: its inputs are cycled in order by every
// client, one session per input.
type workload struct {
	Name string
	Why  string
	// AggregateEvery > 0 follows every n-th session of a client with an
	// "aggregate" query on a fresh connection (a read beside the writes).
	AggregateEvery int
	gen            func(seed int64) ([]*input, error)
}

var workloads = []workload{
	{
		Name: "access-stream",
		Why:  "access-dense clean trace: decode and the block-routed detectors' same-epoch fast paths do the work, Finish and the report path none",
		gen:  genAccessStream,
	},
	{
		Name: "locked-table",
		Why:  "many short critical sections: the highlevel end-of-stream pass is most of the session, decode a few percent",
		gen:  genLockedTable,
	},
	{
		Name:           "sip-proxy",
		Why:            "the paper's SIP cases T1-T8 cycled with metadata and an aggregate query every 32nd session: per-session fixed costs and resolved reports",
		AggregateEvery: 32,
		gen:            genSIPProxy,
	},
	{
		Name: "warning-flood",
		Why:  "unlocked accesses through a thousand call sites: detectors on their reporting path, Collector.Add, Merge, Format and a megabyte response",
		gen:  genWarningFlood,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tools is the registry the daemon runs under -tools all; reference reports
// and every in-process layer measurement use the same one.
func tools() []trace.ToolSpec {
	specs, err := core.Options{}.ParseTools("all")
	if err != nil {
		panic(err) // "all" is a constant the parser knows
	}
	return specs
}

// record runs a guest program on a fresh VM with only the trace recorder
// attached and returns the machine and the binary log.
func record(opt vm.Options, body func(v *vm.VM, main *vm.Thread)) (*vm.VM, []byte, error) {
	var buf bytes.Buffer
	rec := tracelog.NewRecorder(&buf)
	v := vm.New(opt)
	v.AddTool(rec)
	if err := v.Run(func(main *vm.Thread) { body(v, main) }); err != nil {
		return nil, nil, err
	}
	if err := rec.Flush(); err != nil {
		return nil, nil, err
	}
	return v, buf.Bytes(), nil
}

// finishInput counts the events and computes the reference report: an
// offline replay through the same six tools with the resolver tables the
// server will have accumulated from the session's metadata frames.
func finishInput(in *input) error {
	pipe, err := engine.NewPipeline(engine.Options{Tools: tools(), Resolver: scenario.Resolver(in.Meta)})
	if err != nil {
		return err
	}
	n, err := pipe.ReplayLog(bytes.NewReader(in.Log))
	if err != nil {
		pipe.Close()
		return fmt.Errorf("reference replay of %s: %w", in.Name, err)
	}
	col, err := pipe.Close()
	if err != nil {
		return fmt.Errorf("reference close of %s: %w", in.Name, err)
	}
	in.Events, in.ref, in.Want, in.Sites = n, col, col.Format(), col.Locations()
	return nil
}

// Access-stream shape: each worker sweeps load+store over its own blocks and
// touches the shared table under the mutex every sharedEvery-th iteration.
const (
	accessThreads     = 4
	accessIters       = 35000
	accessPrivBlocks  = 4
	accessBlockSlots  = 32
	accessTableSlots  = 64
	accessSharedEvery = 16
)

func genAccessStream(seed int64) ([]*input, error) {
	_, log, err := record(vm.Options{Seed: seed, Quantum: 10, MaxSteps: 500_000_000}, func(v *vm.VM, main *vm.Thread) {
		mu := v.NewMutex("table")
		table := main.Alloc(accessTableSlots*8, "stream-table")
		workers := make([]*vm.Thread, accessThreads)
		for th := range workers {
			th := th
			workers[th] = main.Go(fmt.Sprintf("stream-%d", th), func(t *vm.Thread) {
				priv := make([]*vm.Block, accessPrivBlocks)
				for i := range priv {
					priv[i] = t.Alloc(accessBlockSlots*8, "stream-private")
				}
				for i := 0; i < accessIters; i++ {
					b := priv[i%accessPrivBlocks]
					off := (i / accessPrivBlocks % accessBlockSlots) * 8
					b.Store64(t, off, b.Load64(t, off)+uint64(th))
					if i%accessSharedEvery == accessSharedEvery-1 {
						slot := (th*accessIters + i) % accessTableSlots * 8
						mu.Lock(t)
						table.Store64(t, slot, table.Load64(t, slot)+1)
						mu.Unlock(t)
					}
				}
				for _, b := range priv {
					b.Free(t)
				}
			})
		}
		for _, t := range workers {
			main.Join(t)
		}
		table.Free(main)
	})
	if err != nil {
		return nil, err
	}
	return []*input{{Name: "access-stream", Log: log}}, nil
}

// genLockedTable records the §4.5 locked table exactly as perfbench does.
// Slots stays at 64: the highlevel end-of-stream pass grows with the square
// of the distinct views, and 256 slots takes seconds per session.
func genLockedTable(seed int64) ([]*input, error) {
	w := harness.PerfWorkload{Threads: 4, Iters: 2000, Slots: 64, Seed: seed}
	_, log, err := w.RecordTrace()
	if err != nil {
		return nil, err
	}
	return []*input{{Name: "locked-table", Log: log}}, nil
}

// genSIPProxy records the paper's eight SIPp cases against the SIP proxy in
// the paper's environment (thread per request, the seeded §4.1 bugs), each
// with its VM tables captured for streaming.
func genSIPProxy(seed int64) ([]*input, error) {
	opt := harness.DefaultRunOptions()
	var out []*input
	for _, tc := range sipp.Cases() {
		rt := cppmodel.NewRuntime(cppmodel.Options{AnnotateDeletes: true, ForceNew: opt.ForceNew})
		v, log, err := record(vm.Options{Seed: seed, Quantum: opt.Quantum}, func(v *vm.VM, main *vm.Thread) {
			lc := libc.New(main)
			srv := sip.NewServer(v, rt, lc, sip.Config{Pattern: opt.Pattern, Bugs: opt.Bugs})
			srv.Start(main)
			sink := tc.Drive(main, srv, srv.Config().Domains)
			srv.Stop(main)
			main.Join(sink)
		})
		if err != nil {
			return nil, fmt.Errorf("sip case %s: %w", tc.ID, err)
		}
		out = append(out, &input{Name: tc.ID, Log: log, Meta: scenario.CaptureMetadata(v)})
	}
	return out, nil
}

// Warning-flood shape: every worker walks the same floodSites statements
// (distinct lines in floodFuncs functions), each an unlocked load+store on
// its own word of one of floodBlocks blocks, repeated a seeded 5-20 times.
// A word per statement matters: the happens-before detectors report a word's
// first race only, so statements sharing words would leave them on their
// fast path. Site count, not event count, sets the cost.
const (
	floodThreads = 3
	floodSites   = 1000
	floodFuncs   = 20
	floodBlocks  = 64
	floodWords   = (floodSites + floodBlocks - 1) / floodBlocks // per block
)

func genWarningFlood(seed int64) ([]*input, error) {
	rng := rand.New(rand.NewSource(seed))
	reps := make([]int, floodSites)
	for i := range reps {
		reps[i] = 5 + rng.Intn(16)
	}
	v, log, err := record(vm.Options{Seed: seed, Quantum: 10, MaxSteps: 500_000_000}, func(v *vm.VM, main *vm.Thread) {
		blocks := make([]*vm.Block, floodBlocks)
		for i := range blocks {
			blocks[i] = main.Alloc(floodWords*8, fmt.Sprintf("flood-%d", i))
		}
		workers := make([]*vm.Thread, floodThreads)
		for th := range workers {
			th := th
			workers[th] = main.Go(fmt.Sprintf("flood-%d", th), func(t *vm.Thread) {
				defer t.Func(fmt.Sprintf("Flood::worker%d", th), "flood.cc", 10)()
				perFunc := floodSites / floodFuncs
				for f := 0; f < floodFuncs; f++ {
					pop := t.Func(fmt.Sprintf("Flood::stage%d", f), "flood.cc", 100*f)
					for s := f * perFunc; s < (f+1)*perFunc; s++ {
						t.SetLine(100*f + s%perFunc + 1)
						b := blocks[s%floodBlocks]
						off := s / floodBlocks * 8
						for r := 0; r < reps[s]; r++ {
							b.Store64(t, off, b.Load64(t, off)+1)
						}
					}
					pop()
				}
			})
		}
		for _, t := range workers {
			main.Join(t)
		}
		for _, b := range blocks {
			b.Free(main)
		}
	})
	if err != nil {
		return nil, err
	}
	return []*input{{Name: "warning-flood", Log: log, Meta: scenario.CaptureMetadata(v)}}, nil
}

// generate builds a workload's inputs from the seed, reference reports
// included.
func (w workload) generate(seed int64) ([]*input, error) {
	ins, err := w.gen(seed)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", w.Name, err)
	}
	for _, in := range ins {
		if err := finishInput(in); err != nil {
			return nil, err
		}
	}
	return ins, nil
}

// fingerprint identifies what a workload actually streamed and what the
// tools said about it. Inputs come from this repository's own VM, so a
// change to the VM or to a detector's output changes the workload; two
// result sets with different fingerprints measured different work.
type fingerprint struct {
	InputSHA256  string `json:"input_sha256"`
	ReportSHA256 string `json:"report_sha256"`
	Inputs       int    `json:"inputs"`
	Events       int64  `json:"events"`
	WireBytes    int64  `json:"wire_bytes"`
	Sites        int    `json:"sites"`
	ReportBytes  int64  `json:"report_bytes"`
}

func fingerprintOf(ins []*input) (fingerprint, error) {
	fp := fingerprint{Inputs: len(ins)}
	hin, hrep := sha256.New(), sha256.New()
	for _, in := range ins {
		wire, err := framedSession(in, true, true)
		if err != nil {
			return fingerprint{}, err
		}
		hin.Write(wire)
		hrep.Write([]byte(in.Want))
		fp.Events += in.Events
		fp.WireBytes += int64(len(wire))
		fp.Sites += in.Sites
		fp.ReportBytes += int64(len(in.Want))
	}
	fp.InputSHA256 = hex.EncodeToString(hin.Sum(nil))
	fp.ReportSHA256 = hex.EncodeToString(hrep.Sum(nil))
	return fp, nil
}

// chunk is the events frame payload every client uses, the ingest client's
// default.
const chunk = 64 << 10

// framedSession renders what a client puts on the wire for one session:
// hello, the metadata frames, the log in chunk-sized events frames, end.
// withMeta and withEvents select the two halves, so the deframe and
// metadata stages can be timed apart.
func framedSession(in *input, withMeta, withEvents bool) ([]byte, error) {
	var buf bytes.Buffer
	fw := tracelog.NewFrameWriter(&buf)
	if err := fw.Hello(in.Name); err != nil {
		return nil, err
	}
	if withMeta {
		if err := fw.Metadata(in.Meta); err != nil {
			return nil, err
		}
	}
	if withEvents {
		for log := in.Log; len(log) > 0; {
			n := min(chunk, len(log))
			if err := fw.Events(log[:n]); err != nil {
				return nil, err
			}
			log = log[n:]
		}
	}
	if err := fw.End(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
