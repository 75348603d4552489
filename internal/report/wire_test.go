package report

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

func wireCollector() *Collector {
	var seq uint64
	c := NewCollector(frameResolver{3: framesMain}, nil)
	c.SetSequencer(func() uint64 { return seq })
	seq = 4
	c.Add(Warning{
		Tool: "helgrind", Kind: KindRace, Thread: 2, Addr: 0x1040, Block: 7,
		Off: 8, Size: 4, Access: trace.Write, Stack: 3, PrevStack: 5,
		State: "shared RO, no locks",
	})
	seq = 9
	c.Add(Warning{Tool: "memcheck", Kind: KindUseAfterFree, Stack: 11, Addr: 0x2000})
	c.Add(Warning{Tool: "helgrind", Kind: KindRace, Stack: 3, Thread: 2, Addr: 0x1040, Block: 7,
		Off: 8, Size: 4, Access: trace.Write, PrevStack: 5, State: "shared RO, no locks"})
	return c
}

// TestWireRoundTrip: a decoded collector is merge- and manifest-equivalent to
// the original — the property the router's fleet fold depends on.
func TestWireRoundTrip(t *testing.T) {
	c := wireCollector()
	dec, err := DecodeWire(c.AppendWire(nil))
	if err != nil {
		t.Fatalf("DecodeWire: %v", err)
	}
	if got, want := dec.Manifest(), c.Manifest(); got != want {
		t.Errorf("decoded manifest differs:\n%s\nvs\n%s", got, want)
	}
	if dec.Locations() != c.Locations() || dec.Occurrences() != c.Occurrences() ||
		dec.SuppressedSites() != c.SuppressedSites() {
		t.Errorf("decoded totals %d/%d/%d, want %d/%d/%d",
			dec.Locations(), dec.Occurrences(), dec.SuppressedSites(),
			c.Locations(), c.Occurrences(), c.SuppressedSites())
	}
	if dec.Keys()[0] != c.Keys()[0] {
		t.Error("site keys did not survive the wire")
	}
	// Exemplar details survive too.
	w, orig := dec.Sites()[0], c.Sites()[0]
	if *w != *orig {
		t.Errorf("decoded exemplar %+v, want %+v", *w, *orig)
	}
	// Folding a decoded copy with a fresh original folds by key, not by
	// pointer identity or session-local IDs.
	m := Merge(nil, nil, dec, wireCollector())
	if m.Locations() != 2 {
		t.Errorf("decoded+original merged to %d sites, want 2", m.Locations())
	}
}

// TestWireEmptyCollector round-trips the zero case.
func TestWireEmptyCollector(t *testing.T) {
	dec, err := DecodeWire(NewCollector(nil, nil).AppendWire(nil))
	if err != nil {
		t.Fatalf("DecodeWire(empty): %v", err)
	}
	if dec.Locations() != 0 || dec.Occurrences() != 0 || dec.Manifest() != "" {
		t.Error("decoded empty collector not empty")
	}
}

// TestWireHostileInputs: the decoder must reject — never panic on or
// over-allocate for — truncations, bad versions, implausible counts,
// duplicate keys and trailing garbage.
func TestWireHostileInputs(t *testing.T) {
	good := wireCollector().AppendWire(nil)
	// Every proper prefix is a truncation and must error.
	for i := 0; i < len(good); i++ {
		if _, err := DecodeWire(good[:i]); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", i, len(good))
		}
	}
	// Trailing garbage.
	if _, err := DecodeWire(append(append([]byte(nil), good...), 0xFF)); err == nil {
		t.Error("trailing byte accepted")
	}
	// Wrong version.
	bad := append([]byte(nil), good...)
	bad[0] = 0x7F
	if _, err := DecodeWire(bad); err == nil {
		t.Error("unknown version accepted")
	}
	// Out-of-range enums: a warning kind past KindHighLevel and an access
	// kind past Write. Site layout: [ver][total][suppressed][nsites]
	// [tool len][tool][kind][loc 16][thread][addr][block][off][size][access]...
	c1 := NewCollector(nil, nil)
	c1.Add(Warning{Tool: "t", Kind: KindRace, Stack: 1})
	site1 := c1.AppendWire(nil)
	kindAt := 4 + 1 + len("t")
	badKind := append([]byte(nil), site1...)
	badKind[kindAt] = 200
	if _, err := DecodeWire(badKind); err == nil {
		t.Error("out-of-range warning kind accepted")
	}
	badAccess := append([]byte(nil), site1...)
	badAccess[kindAt+1+16+5] = byte(trace.Write) + 1
	if _, err := DecodeWire(badAccess); err == nil {
		t.Error("out-of-range access kind accepted")
	}
	// A claimed site count far beyond the payload.
	hostile := []byte{wireVersion}
	hostile = append(hostile, 0, 0)             // total, suppressed
	hostile = append(hostile, 0xFF, 0xFF, 0x7F) // ~2M sites, no bytes
	if _, err := DecodeWire(hostile); err == nil {
		t.Error("implausible site count accepted")
	}
	// Duplicate site key: encode one site twice by doubling the count and
	// splicing the site bytes. Simpler: two identical collectors' single
	// sites hand-assembled.
	c := NewCollector(nil, nil)
	c.Add(Warning{Tool: "t", Kind: KindRace, Stack: 1})
	one := c.AppendWire(nil)
	// one = [ver][total][suppressed][nsites=1][site...]; build a payload
	// claiming 2 sites with the same site bytes twice.
	site := one[4:]
	dup := []byte{wireVersion, 2, 0, 2}
	dup = append(dup, site...)
	dup = append(dup, site...)
	if _, err := DecodeWire(dup); err == nil {
		t.Error("duplicate site key accepted")
	}
}

// FuzzCollectorDifferential holds the wire.Reader collector decoder to the
// bytes.Reader decoder it replaced: for every payload both accept or both
// reject, and an accepted payload decodes to a collector with the same
// totals, the same exemplars, the same Manifest and the same Format. Seeds
// are the round-trip fixtures with every truncation prefix and every
// single-bit flip, plus the hostile cases above.
func FuzzCollectorDifferential(f *testing.F) {
	for _, c := range []*Collector{wireCollector(), NewCollector(nil, nil)} {
		good := c.AppendWire(nil)
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
	f.Add([]byte{wireVersion, 0, 0, 0xFF, 0xFF, 0x7F})                                     // absurd site count
	f.Add([]byte{wireVersion, 1, 2, 0})                                                    // suppressed > total
	f.Add([]byte{wireVersion, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}) // overlong varint

	f.Fuzz(func(t *testing.T, payload []byte) {
		got, gerr := DecodeWire(payload)
		want, werr := refDecodeWire(payload)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("decoders disagree on %x: got err %v, reference err %v", payload, gerr, werr)
		}
		if gerr != nil {
			if !strings.HasPrefix(gerr.Error(), "report: ") {
				t.Errorf("error %q lacks the report: prefix", gerr)
			}
			return
		}
		if got.total != want.total || got.suppressed != want.suppressed ||
			got.Locations() != want.Locations() || got.Occurrences() != want.Occurrences() {
			t.Fatalf("totals differ on %x", payload)
		}
		if !reflect.DeepEqual(got.Sites(), want.Sites()) || !reflect.DeepEqual(got.Keys(), want.Keys()) {
			t.Fatalf("sites differ on %x", payload)
		}
		if got.Manifest() != want.Manifest() || got.Format() != want.Format() {
			t.Fatalf("rendering differs on %x:\n%s\nvs\n%s", payload, got.Format(), want.Format())
		}
	})
}
