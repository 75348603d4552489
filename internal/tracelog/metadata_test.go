package tracelog_test

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// sampleMetadata builds a small two-stack, two-block table set.
func sampleMetadata() *tracelog.Metadata {
	return &tracelog.Metadata{
		Stacks: map[trace.StackID][]trace.Frame{
			1: {{Fn: "main", File: "main.cpp", Line: 10}, {Fn: "worker", File: "pool.cpp", Line: 42}},
			7: {{Fn: "handler", File: "sip.cpp", Line: 333}},
		},
		Blocks: map[trace.BlockID]trace.Block{
			1: {ID: 1, Base: 0x1000_0000, Size: 64, Thread: 2, Stack: 1, Tag: "obj:Request"},
			3: {ID: 3, Base: 0x1000_0400, Size: 16, Thread: 1, Stack: 7, Freed: true, Tag: "string-rep"},
		},
	}
}

// TestMetadataRoundTrip pins that tables written as metadata frames come back
// intact through the frame reader's accumulated TableResolver, with the
// event payload around them undisturbed.
func TestMetadataRoundTrip(t *testing.T) {
	md := sampleMetadata()
	log := recordFrameLog(t)
	framed, err := tracelog.EncodeFramedMeta("meta", md, log)
	if err != nil {
		t.Fatal(err)
	}

	fr := tracelog.NewFrameReader(bytes.NewReader(framed))
	kind, name, err := fr.Handshake()
	if err != nil || kind != tracelog.FrameHello || name != "meta" {
		t.Fatalf("handshake = %v %q %v", kind, name, err)
	}
	got, err := io.ReadAll(fr)
	if err != nil {
		t.Fatalf("read events: %v", err)
	}
	if !bytes.Equal(got, log) {
		t.Error("events payload differs after interleaved metadata frames")
	}
	res := fr.Tables()
	if s, b := res.Counts(); s != len(md.Stacks) || b != len(md.Blocks) {
		t.Fatalf("resolver holds %d stacks / %d blocks, want %d / %d", s, b, len(md.Stacks), len(md.Blocks))
	}
	for id, frames := range md.Stacks {
		if !reflect.DeepEqual(res.Stack(id), frames) {
			t.Errorf("stack %d = %+v, want %+v", id, res.Stack(id), frames)
		}
	}
	for id, blk := range md.Blocks {
		got := res.BlockInfo(id)
		if got == nil || *got != blk {
			t.Errorf("block %d = %+v, want %+v", id, got, blk)
		}
	}
	if res.Stack(99) != nil || res.BlockInfo(99) != nil {
		t.Error("unknown IDs resolve to non-nil")
	}
}

// TestMetadataChunking forces the writer to split a large table across
// several metadata frames and checks the receiver reassembles all of it.
func TestMetadataChunking(t *testing.T) {
	md := &tracelog.Metadata{Stacks: map[trace.StackID][]trace.Frame{}, Blocks: map[trace.BlockID]trace.Block{}}
	for i := 1; i <= 4000; i++ {
		md.Stacks[trace.StackID(i)] = []trace.Frame{{
			Fn:   fmt.Sprintf("functionfunctionfunctionfunction_%04d", i),
			File: fmt.Sprintf("some/deeply/nested/source/file_%04d.cpp", i),
			Line: i,
		}}
	}
	var buf bytes.Buffer
	fw := tracelog.NewFrameWriter(&buf)
	if err := fw.Hello("big"); err != nil {
		t.Fatal(err)
	}
	if err := fw.Metadata(md); err != nil {
		t.Fatal(err)
	}
	if err := fw.End(); err != nil {
		t.Fatal(err)
	}

	fr := tracelog.NewFrameReader(bytes.NewReader(buf.Bytes()))
	if _, _, err := fr.Handshake(); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(fr); err != nil {
		t.Fatal(err)
	}
	if s, _ := fr.Tables().Counts(); s != len(md.Stacks) {
		t.Fatalf("resolver holds %d stacks, want %d", s, len(md.Stacks))
	}
	if got := fr.Tables().Stack(4000); len(got) != 1 || got[0].Line != 4000 {
		t.Errorf("stack 4000 = %+v", got)
	}
}

// TestMetadataOversizedEntry pins the entry bounds: a single entry too large
// for any metadata frame is dropped (that one ID stays unresolvable — the
// session must not fail), while a large-but-legal entry travels alone in its
// own frame and round-trips.
func TestMetadataOversizedEntry(t *testing.T) {
	big := strings.Repeat("f", 700<<10) // one ~700KB frame string: legal, own frame
	huge := strings.Repeat("x", 1<<20)  // pushes the entry past any frame's limit
	md := &tracelog.Metadata{
		Stacks: map[trace.StackID][]trace.Frame{
			1: {{Fn: "ok", File: "a.cpp", Line: 1}},
			2: {{Fn: big, File: "b.cpp", Line: 2}},
			3: {{Fn: huge, File: "c.cpp", Line: 3}},
		},
	}
	var buf bytes.Buffer
	fw := tracelog.NewFrameWriter(&buf)
	if err := fw.Hello("big-entries"); err != nil {
		t.Fatal(err)
	}
	if err := fw.Metadata(md); err != nil {
		t.Fatalf("Metadata with oversized entry must not fail the stream: %v", err)
	}
	if err := fw.End(); err != nil {
		t.Fatal(err)
	}
	fr := tracelog.NewFrameReader(bytes.NewReader(buf.Bytes()))
	if _, _, err := fr.Handshake(); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(fr); err != nil {
		t.Fatal(err)
	}
	res := fr.Tables()
	if got := res.Stack(1); len(got) != 1 || got[0].Fn != "ok" {
		t.Errorf("stack 1 = %+v", got)
	}
	if got := res.Stack(2); len(got) != 1 || got[0].Fn != big {
		t.Errorf("large-but-legal stack 2 lost (len %d)", len(got))
	}
	if got := res.Stack(3); got != nil {
		t.Error("unsendable stack 3 should have been dropped by the encoder")
	}

	// Symmetry: a resolver built directly from the same Metadata (the
	// offline-reference path) must hold exactly the wire-delivered tables —
	// same drop decision — or live and offline reports would diverge.
	direct := tracelog.NewTableResolver()
	direct.AddMetadata(md)
	ds, db := direct.Counts()
	ws, wb := res.Counts()
	if ds != ws || db != wb {
		t.Errorf("direct resolver holds %d/%d entries, wire resolver %d/%d — drop decisions diverge", ds, db, ws, wb)
	}
	if direct.Stack(3) != nil {
		t.Error("direct resolver kept the unsendable entry the wire drops")
	}
}

// TestMetadataEmpty pins that nil/empty metadata writes no frame at all:
// EncodeFramedMeta(nil) is byte-identical to EncodeFramed.
func TestMetadataEmpty(t *testing.T) {
	log := recordFrameLog(t)
	plain, err := tracelog.EncodeFramed("x", log)
	if err != nil {
		t.Fatal(err)
	}
	withNil, err := tracelog.EncodeFramedMeta("x", nil, log)
	if err != nil {
		t.Fatal(err)
	}
	empty := &tracelog.Metadata{}
	withEmpty, err := tracelog.EncodeFramedMeta("x", empty, log)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, withNil) || !bytes.Equal(plain, withEmpty) {
		t.Error("empty metadata changed the encoded stream")
	}
}

// TestMetadataCorrupt pins the hostile-input contract: corrupt metadata
// payloads are rejected as errors, never allocated from claimed counts.
func TestMetadataCorrupt(t *testing.T) {
	// A valid framed prefix up to a hand-built metadata frame payload.
	frame := func(payload []byte) []byte {
		var buf bytes.Buffer
		fw := tracelog.NewFrameWriter(&buf)
		if err := fw.Hello("c"); err != nil {
			t.Fatal(err)
		}
		out := buf.Bytes()
		out = append(out, byte(tracelog.FrameMetadata))
		out = append(out, byte(len(payload)))
		return append(out, payload...)
	}
	cases := map[string][]byte{
		"huge-stack-count": frame([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}),
		"huge-frame-count": frame([]byte{1, 1, 0xff, 0xff, 0xff, 0xff, 0x0f}),
		"truncated-string": frame([]byte{1, 1, 1, 10, 'x'}),
		"trailing-bytes":   frame([]byte{0, 0, 1, 2, 3}),
	}
	for name, data := range cases {
		fr := tracelog.NewFrameReader(bytes.NewReader(data))
		if _, _, err := fr.Handshake(); err != nil {
			t.Fatalf("%s: handshake: %v", name, err)
		}
		if _, err := io.ReadAll(fr); err == nil {
			t.Errorf("%s: corrupt metadata accepted", name)
		}
	}
}

// FuzzMetadataDifferential holds the wire.Reader metadata decoder to the
// bytes.Reader decoder it replaced: for every payload both accept or both
// reject, and an accepted payload decodes to the same stack and block
// tables with the same sendable mark. Seeds are the round-trip fixtures
// with every truncation prefix and every single-bit flip, plus
// FuzzFramedStream's metadata seeds.
func FuzzMetadataDifferential(f *testing.F) {
	md := sampleMetadata()
	md.Stacks[9] = []trace.Frame{}
	for _, chunk := range tracelog.EncodeMetadataChunks(md) {
		for i := range chunk {
			f.Add(chunk[:i])
			for bit := 0; bit < 8; bit++ {
				mut := bytes.Clone(chunk)
				mut[i] ^= 1 << bit
				f.Add(mut)
			}
		}
		f.Add(chunk)
	}
	sm := scenario.Generate(scenario.GenConfig{Seed: 54321})
	v, _, err := scenario.Record(sm, true, 2)
	if err != nil {
		f.Fatal(err)
	}
	for _, chunk := range tracelog.EncodeMetadataChunks(scenario.CaptureMetadata(v)) {
		f.Add(chunk)
		f.Add(chunk[:len(chunk)*2/3])
		mut := bytes.Clone(chunk)
		mut[len(mut)/4] ^= 0xff
		f.Add(mut)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})       // absurd stack count
	f.Add([]byte{1, 1, 0xff, 0xff, 0xff, 0x0f})       // absurd frame count
	f.Add([]byte{1, 1, 1, 10, 'x'})                   // truncated string
	f.Add([]byte{0, 0, 1, 2, 3})                      // trailing bytes after tables
	f.Add([]byte{0, 1, 1, 0, 0, 0, 0, 0, 0xff, 0x7f}) // tag length past the payload

	f.Fuzz(func(t *testing.T, payload []byte) {
		got, gerr := tracelog.DecodeMetadata(payload)
		want, werr := tracelog.RefDecodeMetadata(payload)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("decoders disagree on %x: got err %v, reference err %v", payload, gerr, werr)
		}
		if gerr != nil {
			if !strings.HasPrefix(gerr.Error(), "tracelog: ") {
				t.Errorf("error %q lacks the tracelog: prefix", gerr)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoders disagree on %x:\ngot  %+v\nwant %+v", payload, got, want)
		}
	})
}
