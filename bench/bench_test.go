package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/vm"
)

func TestGeneratorsFollowTheSeed(t *testing.T) {
	wire := func(w workload, seed int64) []byte {
		ins, err := w.gen(seed)
		if err != nil {
			t.Fatalf("%s seed %d: %v", w.Name, seed, err)
		}
		var all []byte
		for _, in := range ins {
			b, err := framedSession(in, true, true)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, b...)
		}
		return all
	}
	for _, w := range workloads {
		a, again, b := wire(w, 7), wire(w, 7), wire(w, 8)
		if !bytes.Equal(a, again) {
			t.Errorf("%s: the same seed gave different input bytes", w.Name)
		}
		if bytes.Equal(a, b) {
			t.Errorf("%s: seeds 7 and 8 gave identical input bytes", w.Name)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: %v", got)
	}
	if got := spread([]float64{90, 100, 120}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("spread = %v, want 0.3", got)
	}
}

func TestWindowRatesSplitStraddlingSessions(t *testing.T) {
	// One session of 300 events over [0.5s, 2.0s) against three 1 s
	// sub-windows: 100, 200 and 0 events' worth.
	s := []sample{{Start: 500 * time.Millisecond, End: 2 * time.Second, Events: 300}}
	got := windowRates(s, 3*time.Second, 3, func(a, b time.Duration) time.Duration { return b - a })
	want := []float64{100, 200, 0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("rates = %v, want %v", got, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "session", Start: 0, End: 100, Parent: -1, Session: 3},
		{ID: 1, Name: "a", Start: 10, End: 40, Parent: 0, Session: 3},
		{ID: 2, Name: "b", Start: 15, End: 25, Parent: 1, Session: 3},
		{ID: 3, Name: "a", Start: 50, End: 60, Parent: 0, Session: 3},
		{ID: 4, Name: "session", Start: 100, End: 130, Parent: -1, Session: 4},
	}
	got := selfTimes(spans)
	want := map[int]map[string]int64{
		3: {"session": 60, "a": 30, "b": 10},
		4: {"session": 30},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestResultsRoundTrip(t *testing.T) {
	set := resultSet{
		Host: hostFacts{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24", Commit: "abc", Clients: 1},
		Seed: 9, Seconds: 24, Trace: true,
		Workloads: []workloadResult{{
			Name:        "sip-proxy",
			Fingerprint: fingerprint{InputSHA256: "aa", ReportSHA256: "bb", Inputs: 8, Events: 10, WireBytes: 20, Sites: 3, ReportBytes: 40},
			Correct:     true, Attempted: 12, Sessions: 10,
			Metrics: map[string]metric{"events_per_s": {Value: 1234.5678901234, Unit: "1/s"}},
		}},
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := writeJSON(path, set); err != nil {
		t.Fatal(err)
	}
	var back resultSet
	if err := readJSON(path, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(set, back) {
		t.Fatalf("round trip changed the result set:\n%+v\n%+v", set, back)
	}
}

func TestAgree(t *testing.T) {
	mk := func(rate float64, sha string) resultSet {
		return resultSet{Workloads: []workloadResult{{
			Name: "w", Correct: true, Fingerprint: fingerprint{InputSHA256: sha},
			Metrics: map[string]metric{"events_per_s": {Value: rate}},
		}}}
	}
	defs := []metricDef{{Name: "events_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}}
	if !agree(io.Discard, defs, mk(100, "x"), mk(108, "x")) {
		t.Error("8% apart under a 10% bound should agree")
	}
	if agree(io.Discard, defs, mk(100, "x"), mk(88, "x")) {
		t.Error("12% apart under a 10% bound should not agree")
	}
	if agree(io.Discard, defs, mk(100, "x"), mk(100, "y")) {
		t.Error("different fingerprints should not agree")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package in
// step: the driver reads the file, the program prints from the tables.
func TestBenchmarkJSON(t *testing.T) {
	var def struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(def.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if def.Workloads[i].Name != w.Name || def.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q/%q, the program %q/%q", i, def.Workloads[i].Name, def.Workloads[i].Why, w.Name, w.Why)
		}
	}
	if !reflect.DeepEqual(def.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%v\n%v", def.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(def.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%v\n%v", def.PerLayer, perLayer)
	}
}

// tiny is a workload small enough for a test: two threads racing on one
// block through a few call sites, metadata streamed.
var tiny = workload{
	Name: "tiny", AggregateEvery: 2,
	gen: func(seed int64) ([]*input, error) {
		v, log, err := record(vm.Options{Seed: seed}, func(v *vm.VM, main *vm.Thread) {
			b := main.Alloc(64, "tiny")
			var ts []*vm.Thread
			for i := 0; i < 2; i++ {
				ts = append(ts, main.Go("t", func(t *vm.Thread) {
					defer t.Func("Tiny::run", "tiny.cc", 1)()
					for k := 0; k < 40; k++ {
						t.SetLine(k%4 + 1)
						b.Store64(t, 0, b.Load64(t, 0)+1)
					}
				}))
			}
			for _, th := range ts {
				main.Join(th)
			}
		})
		if err != nil {
			return nil, err
		}
		return []*input{{Name: "tiny", Log: log, Meta: scenario.CaptureMetadata(v)}}, nil
	},
}

func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, traced := range []bool{false, true} {
		cfg := config{seed: 1, seconds: 0.3, trace: traced, smoke: true, outDir: dir, clients: 1}
		res, err := runWorkload(tiny, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 || res.Sessions == 0 {
			t.Fatalf("trace=%v: %+v", traced, res)
		}
		if res.Fingerprint.Sites == 0 {
			t.Fatal("the tiny workload should raise warnings")
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for _, def := range defs {
			m, ok := res.Metrics[def.Name]
			if !ok || m.Unit != def.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("trace=%v: metric %s = %+v (present %v)", traced, def.Name, m, ok)
			}
		}
	}
	var tf traceFile
	if err := readJSON(filepath.Join(dir, "trace-tiny.json"), &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 || tf.Spans[0].Name != "session" || tf.Spans[0].Parent != -1 {
		t.Fatalf("trace file: %d spans, first %+v", len(tf.Spans), tf.Spans)
	}
}

func TestCorruptedReportFails(t *testing.T) {
	ins, err := tiny.generate(1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := startInProcess(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	three := func(i int, _ time.Duration) bool { return i < 3 }
	if r := runClients(time.Now(), d.addr, tiny, ins, 1, "ok", three); r.Failed != 0 || len(r.Samples) != 3 {
		t.Fatalf("clean run: %+v", r)
	}
	ins[0].Want = strings.Replace(ins[0].Want, "Tiny::run", "Tiny::ran", 1)
	r := runClients(time.Now(), d.addr, tiny, ins, 1, "bad", three)
	if r.Failed != 3 || len(r.Samples) != 0 || r.Events != 0 {
		t.Fatalf("a report that differs from the reference must fail the session: %+v", r)
	}
	// The books must notice sessions the generator did not count as verified.
	if _, err := accounting(d.addr, 3, 3*ins[0].Events); err == nil {
		t.Fatal("accounting accepted six reported sessions as three")
	}
}

func TestContractLine(t *testing.T) {
	res := &workloadResult{Name: "w", Correct: true, Attempted: 3, Metrics: map[string]metric{}}
	for _, def := range endToEnd {
		res.Metrics[def.Name] = metric{Value: 1.5, Unit: def.Unit}
	}
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	printResult(res, false)
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("contract line lacks %q", k)
		}
	}
	if len(line) != 4 {
		t.Errorf("contract line has %d keys, want 4", len(line))
	}
}
