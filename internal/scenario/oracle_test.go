package scenario

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cppmodel"
	"repro/internal/hybrid"
	"repro/internal/libc"
	"repro/internal/lockset"
	"repro/internal/report"
	"repro/internal/sip"
	"repro/internal/sipp"
	"repro/internal/trace"
	"repro/internal/tracelog"
	"repro/internal/vectorclock"
	"repro/internal/vm"
)

// FuzzDetectorOracle replays VM traces through the production DJIT and
// hybrid detectors and, side by side, through their test-only predecessors
// refDJIT and refHybrid. Every configuration must produce the same ordered
// warnings and, for DJIT, the same dynamic race count. The configurations
// include ones the golden report digests never run: DJIT without lock edges,
// with the Helgrind edge mask, reporting every race and at a one-byte
// granule; the hybrid under each bus model and the Helgrind mask.
//
// A fuzz input is a (generator seed, scheduler seed) pair; the buggy and the
// control variant of the scenario are both replayed. The seed corpus is the
// golden corpus, whose committed trace files are replayed as they are, plus
// the conformance scenarios at further scheduler seeds. Run the seed corpus
// with
//
//	go test -run FuzzDetectorOracle ./internal/scenario/
//
// and search further with
//
//	go test -run '^$' -fuzz FuzzDetectorOracle ./internal/scenario/
func FuzzDetectorOracle(f *testing.F) {
	m, err := LoadManifest(goldenDir)
	if err != nil {
		f.Fatal(err)
	}
	golden := make(map[[2]int64]string)
	for _, e := range m.Scenarios {
		golden[[2]int64{e.GenSeed, e.SchedSeed}] = e.Name
		f.Add(e.GenSeed, e.SchedSeed)
	}
	for gen := int64(1); gen <= conformanceScenarios; gen++ {
		for sched := int64(2); sched <= 4; sched++ {
			f.Add(gen, sched)
		}
	}
	f.Fuzz(func(t *testing.T, genSeed, schedSeed int64) {
		s := Generate(GenConfig{Seed: genSeed})
		for _, buggy := range []bool{true, false} {
			_, log, err := Record(s, buggy, schedSeed)
			if err != nil {
				t.Fatal(err)
			}
			if name, ok := golden[[2]int64{genSeed, schedSeed}]; ok {
				file := name + ".trace"
				if !buggy {
					file = name + ".control.trace"
				}
				if log, err = os.ReadFile(filepath.Join(goldenDir, file)); err != nil {
					t.Fatal(err)
				}
			}
			checkOracles(t, fmt.Sprintf("gen %d sched %d buggy %v", genSeed, schedSeed, buggy), log)
		}
	})
}

var (
	oracleDJITConfigs = []vectorclock.Config{
		vectorclock.DefaultConfig(),
		{FirstRaceOnly: true},
		{LockEdges: true, FirstRaceOnly: true, Edges: trace.MaskHelgrind},
		{LockEdges: true},
		{LockEdges: true, FirstRaceOnly: true, Granule: 1},
	}
	oracleHybridConfigs = []hybrid.Config{
		{Bus: lockset.BusNone},
		{Bus: lockset.BusSingleMutex},
		{Bus: lockset.BusRWLock},
		{Bus: lockset.BusRWLock, Edges: trace.MaskHelgrind},
	}
)

// warnLog is a trace.Reporter keeping every warning in arrival order.
type warnLog []report.Warning

func (w *warnLog) Add(x report.Warning) bool {
	*w = append(*w, x)
	return true
}

// oraclePair is one configuration run through production and oracle.
type oraclePair struct {
	cfg         string
	prod, ref   trace.Sink
	prodW, refW warnLog
}

// checkOracles replays log once through every production/oracle pair and
// compares their warnings and dynamic race counts.
func checkOracles(t *testing.T, input string, log []byte) {
	t.Helper()
	var pairs []*oraclePair
	var sinks []trace.Sink
	for _, cfg := range oracleDJITConfigs {
		p := &oraclePair{cfg: fmt.Sprintf("djit %+v", cfg)}
		p.prod, p.ref = vectorclock.New(cfg, &p.prodW), newRefDJIT(cfg, &p.refW)
		pairs = append(pairs, p)
		sinks = append(sinks, p.prod, p.ref)
	}
	for _, cfg := range oracleHybridConfigs {
		p := &oraclePair{cfg: fmt.Sprintf("hybrid %+v", cfg)}
		p.prod, p.ref = hybrid.New(cfg, &p.prodW), newRefHybrid(cfg, &p.refW)
		pairs = append(pairs, p)
		sinks = append(sinks, p.prod, p.ref)
	}
	if _, err := tracelog.Replay(bytes.NewReader(log), sinks...); err != nil {
		t.Fatalf("%s: replay: %v", input, err)
	}
	type dynamic interface{ DynamicRaces() int }
	for _, p := range pairs {
		if !slices.Equal(p.prodW, p.refW) {
			t.Errorf("%s, %s: production warnings differ from the oracle's\nproduction: %+v\noracle:     %+v", input, p.cfg, p.prodW, p.refW)
		}
		if pd, ok := p.prod.(dynamic); ok {
			if got, want := pd.DynamicRaces(), p.ref.(dynamic).DynamicRaces(); got != want {
				t.Errorf("%s, %s: %d dynamic races, oracle %d", input, p.cfg, got, want)
			}
		}
	}
}

// TestDetectorOracleSIP runs the oracle comparison over the paper's SIP test
// cases T1-T8 under both server patterns. Unlike the generated scenarios
// these traces carry bus-locked accesses (the COW string reference
// counters), so the hybrid's three bus models see different lock-sets, and
// the thread pool's queue and condition edges.
func TestDetectorOracleSIP(t *testing.T) {
	for _, pattern := range []sip.Pattern{sip.ThreadPerRequest, sip.ThreadPool} {
		for _, tc := range sipp.Cases() {
			var buf bytes.Buffer
			rec := tracelog.NewRecorder(&buf)
			v := vm.New(vm.Options{Seed: 1, Quantum: 3})
			v.AddTool(rec)
			rt := cppmodel.NewRuntime(cppmodel.Options{AnnotateDeletes: true, ForceNew: true})
			err := v.Run(func(main *vm.Thread) {
				srv := sip.NewServer(v, rt, libc.New(main), sip.Config{Pattern: pattern, Bugs: sip.PaperBugs()})
				srv.Start(main)
				sink := tc.Drive(main, srv, srv.Config().Domains)
				srv.Stop(main)
				main.Join(sink)
			})
			if err != nil {
				t.Fatalf("%s: %v", tc.ID, err)
			}
			if err := rec.Flush(); err != nil {
				t.Fatal(err)
			}
			checkOracles(t, fmt.Sprintf("%s pattern %d", tc.ID, pattern), buf.Bytes())
		}
	}
}
