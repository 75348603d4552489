package tracelog

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/trace"
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
	got, err := DecodeBackendResult(res.Append(nil))
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
	if string(res.Append(nil)) != string(res.Append(nil)) {
		t.Error("encode not deterministic")
	}
}

func TestBackendResultHostile(t *testing.T) {
	good := sampleResult().Append(nil)
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
		if _, err := DecodeBackendResult(payload); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Every truncation point must error, never panic or misparse.
	for i := 0; i < len(good); i++ {
		if _, err := DecodeBackendResult(good[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
}

func TestBackendCensusRoundTrip(t *testing.T) {
	c := &BackendCensus{Sessions: 10, Reported: 7, Failed: 1, Active: 2, Folded: 4, Events: 99999}
	got, err := DecodeBackendCensus(c.Append(nil))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *c {
		t.Errorf("round trip drifted: %+v != %+v", got, c)
	}
	for _, hostile := range [][]byte{{}, {99}, {backendWireVersion, 1, 2}} {
		if _, err := DecodeBackendCensus(hostile); err == nil {
			t.Errorf("hostile census %v accepted", hostile)
		}
	}
	if _, err := DecodeBackendCensus(append(c.Append(nil), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

// FuzzBackendDifferential holds the wire.Reader backend result and census
// decoders to the bytes.Reader decoders they replaced: for every payload
// each pair both accepts or both rejects, and an accepted payload decodes
// to equal fields, the embedded collector's totals, Manifest and Format
// included. Seeds are the round-trip fixtures with every truncation prefix
// and every single-bit flip, plus the hostile cases above.
func FuzzBackendDifferential(f *testing.F) {
	empty := &BackendResult{Col: report.NewCollector(nil, nil)}
	census := &BackendCensus{Sessions: 10, Reported: 7, Failed: 1, Active: 2, Folded: 4, Events: 99999}
	for _, good := range [][]byte{sampleResult().Append(nil), empty.Append(nil), census.Append(nil)} {
		for i := range good {
			f.Add(good[:i])
			for bit := 0; bit < 8; bit++ {
				mut := bytes.Clone(good)
				mut[i] ^= 1 << bit
				f.Add(mut)
			}
		}
		f.Add(good)
	}
	f.Add([]byte{backendWireVersion, 0, 0, 0, 0xFF, 0xFF, 0x7F}) // absurd shed count
	f.Add([]byte{backendWireVersion, 1, 2})                      // truncated census

	f.Fuzz(func(t *testing.T, payload []byte) {
		got, gerr := DecodeBackendResult(payload)
		want, werr := refDecodeBackendResult(payload)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("result decoders disagree on %x: got err %v, reference err %v", payload, gerr, werr)
		}
		if gerr == nil {
			gcol, wcol := got.Col, want.Col
			got.Col, want.Col = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("results differ on %x:\ngot  %+v\nwant %+v", payload, got, want)
			}
			if gcol.Locations() != wcol.Locations() || gcol.Occurrences() != wcol.Occurrences() ||
				gcol.SuppressedSites() != wcol.SuppressedSites() ||
				gcol.Manifest() != wcol.Manifest() || gcol.Format() != wcol.Format() {
				t.Fatalf("collectors differ on %x", payload)
			}
		} else if !strings.HasPrefix(gerr.Error(), "tracelog: ") && !strings.HasPrefix(gerr.Error(), "report: ") {
			t.Errorf("error %q lacks its codec prefix", gerr)
		}

		gc, gerr := DecodeBackendCensus(payload)
		wc, werr := refDecodeBackendCensus(payload)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("census decoders disagree on %x: got err %v, reference err %v", payload, gerr, werr)
		}
		if gerr == nil && *gc != *wc {
			t.Fatalf("census differs on %x: %+v vs %+v", payload, *gc, *wc)
		}
	})
}
