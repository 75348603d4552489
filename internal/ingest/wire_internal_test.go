package ingest

import (
	"strings"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// sampleResult builds a representative backend result: a collector with two
// sites, summaries, shed tools, non-trivial counters.
func sampleResult() *BackendResult {
	col := report.NewCollector(nil, nil)
	col.Add(trace.Warning{Tool: "lockset", Kind: trace.KindRace, Stack: 7, Block: 3, Off: 16, Size: 4})
	col.Add(trace.Warning{Tool: "lockset", Kind: trace.KindRace, Stack: 7, Block: 3, Off: 16, Size: 4})
	col.Add(trace.Warning{Tool: "memcheck", Kind: trace.KindUseAfterFree, Stack: 9, Block: 5})
	return &BackendResult{
		Name:       "sess-1",
		Events:     12345,
		SampledOut: 67,
		Shed:       []string{"deadlock", "highlevel"},
		Report:     "== report text ==\nwith lines\n",
		Sums: map[string]trace.ToolSummary{
			"memcheck": {"errors": 2, "leaks": 1},
			"lockset":  {"races": 2},
		},
		Col: col,
	}
}

func TestBackendResultRoundTrip(t *testing.T) {
	res := sampleResult()
	got, err := decodeBackendResult(res.encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != res.Name || got.Events != res.Events || got.SampledOut != res.SampledOut ||
		got.Report != res.Report {
		t.Errorf("scalar fields drifted: %+v", got)
	}
	if len(got.Shed) != 2 || got.Shed[0] != "deadlock" || got.Shed[1] != "highlevel" {
		t.Errorf("shed = %v", got.Shed)
	}
	if got.Sums["memcheck"]["errors"] != 2 || got.Sums["lockset"]["races"] != 2 {
		t.Errorf("sums = %v", got.Sums)
	}
	if got.Col.Manifest() != res.Col.Manifest() {
		t.Errorf("collector manifest drifted:\n%s\nvs\n%s", got.Col.Manifest(), res.Col.Manifest())
	}
	// Encoding is a pure function of content (sorted summaries), so two
	// encodes agree byte for byte.
	if string(res.encode(nil)) != string(res.encode(nil)) {
		t.Error("encode not deterministic")
	}
}

func TestBackendResultHostile(t *testing.T) {
	good := sampleResult().encode(nil)
	cases := map[string][]byte{
		"empty":         {},
		"bad version":   {99},
		"truncated":     good[:len(good)/2],
		"trailing byte": append(append([]byte{}, good...), 0),
		// version, name len 0, events 0, sampledOut 0, then a shed count far
		// beyond the remaining bytes.
		"implausible shed count": {backendWireVersion, 0, 0, 0, 0xFF, 0xFF, 0x7F},
	}
	for name, payload := range cases {
		if _, err := decodeBackendResult(payload); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Every truncation point must error, never panic or misparse.
	for i := 0; i < len(good); i++ {
		if _, err := decodeBackendResult(good[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
}

func TestBackendCensusRoundTrip(t *testing.T) {
	c := &BackendCensus{Sessions: 10, Reported: 7, Failed: 1, Active: 2, Folded: 4, Events: 99999}
	got, err := decodeBackendCensus(c.encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *c {
		t.Errorf("round trip drifted: %+v != %+v", got, c)
	}
	for _, hostile := range [][]byte{{}, {99}, {backendWireVersion, 1, 2}} {
		if _, err := decodeBackendCensus(hostile); err == nil {
			t.Errorf("hostile census %v accepted", hostile)
		}
	}
	if _, err := decodeBackendCensus(append(c.encode(nil), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

// TestBackoffGovernor pins the cooperative client backoff: busy rejections
// grow the governed delay (seeded by the server hint), successes decay it
// back to zero, and non-busy errors never engage it.
func TestBackoffGovernor(t *testing.T) {
	busy := func(hint time.Duration) error {
		return decodeRemote(t, tracelog.BusyMessage("full", hint))
	}
	b := NewBackoff(400 * time.Millisecond)
	if d := b.OnBusy(busy(0)); d != backoffFloor {
		t.Errorf("first hintless rejection delay = %v, want floor %v", d, backoffFloor)
	}
	if d := b.OnBusy(busy(300 * time.Millisecond)); d != 300*time.Millisecond {
		t.Errorf("hinted rejection delay = %v, want the 300ms hint", d)
	}
	if d := b.OnBusy(busy(0)); d != 400*time.Millisecond {
		t.Errorf("doubled delay = %v, want the 400ms cap", d)
	}
	for i := 0; i < 4; i++ {
		b.OnSuccess()
	}
	if d := b.Delay(); d != 0 {
		t.Errorf("delay after sustained success = %v, want 0", d)
	}
	if d := b.OnBusy(decodeRemote(t, "plain failure")); d != 0 || b.Delay() != 0 {
		t.Errorf("non-busy error engaged the governor: %v / %v", d, b.Delay())
	}
}

// decodeRemote turns an error-frame payload into the typed error a client
// would see, via a real frame exchange.
func decodeRemote(t *testing.T, msg string) error {
	t.Helper()
	var buf strings.Builder
	fw := tracelog.NewFrameWriter(&buf)
	if err := fw.Error(msg); err != nil {
		t.Fatal(err)
	}
	_, err := tracelog.NewFrameReader(strings.NewReader(buf.String())).Response()
	if err == nil {
		t.Fatal("error frame decoded as success")
	}
	return err
}
