package tracelog_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/tracelog"
	"repro/internal/vm"
)

// recordFrameLog records a small guest trace for framing round-trips.
func recordFrameLog(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := tracelog.NewRecorder(&buf)
	v := vm.New(vm.Options{Seed: 3})
	v.AddTool(rec)
	err := v.Run(func(main *vm.Thread) {
		mu := v.NewMutex("m")
		b := main.Alloc(16, "blk")
		w := main.Go("w", func(th *vm.Thread) {
			mu.Lock(th)
			b.Store64(th, 0, 1)
			mu.Unlock(th)
		})
		mu.Lock(main)
		b.Store64(main, 8, 2)
		mu.Unlock(main)
		main.Join(w)
		b.Free(main)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frameSession builds a framed session stream from a raw log, chunked at the
// given size to exercise events spanning frame boundaries.
func frameSession(t testing.TB, name string, log []byte, chunk int) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := tracelog.NewFrameWriter(&buf)
	if err := fw.Hello(name); err != nil {
		t.Fatal(err)
	}
	for len(log) > 0 {
		n := chunk
		if n > len(log) {
			n = len(log)
		}
		if err := fw.Events(log[:n]); err != nil {
			t.Fatal(err)
		}
		log = log[n:]
	}
	if err := fw.End(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeFramed runs a framed stream through handshake + decoder and returns
// the session name, the decoded event count, and the terminal decode error.
func decodeFramed(t testing.TB, stream []byte) (string, int64, error) {
	t.Helper()
	fr := tracelog.NewFrameReader(bytes.NewReader(stream))
	kind, name, err := fr.Handshake()
	if err != nil {
		return "", 0, err
	}
	if kind != tracelog.FrameHello {
		t.Fatalf("handshake kind = %v, want hello", kind)
	}
	dec := tracelog.NewDecoder(fr)
	var ev tracelog.Event
	for {
		err := dec.Next(&ev)
		if err != nil {
			if err == io.EOF {
				return name, dec.Events(), nil
			}
			return name, dec.Events(), err
		}
	}
}

// TestFrameRoundTrip pins that framing is pure transport: any chunking of the
// same log decodes to the same events, and the offline format is exactly one
// events frame (the chunk >= len(log) case).
func TestFrameRoundTrip(t *testing.T) {
	log := recordFrameLog(t)
	raw, err := tracelog.Replay(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 7, 64, len(log), len(log) * 2} {
		stream := frameSession(t, "s1", log, chunk)
		name, events, err := decodeFramed(t, stream)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if name != "s1" {
			t.Errorf("chunk %d: session name %q", chunk, name)
		}
		if events != raw {
			t.Errorf("chunk %d: %d events, want %d", chunk, events, raw)
		}
	}
	// EncodeFramed is the one-frame shorthand for the same stream.
	enc, err := tracelog.EncodeFramed("s1", log)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, frameSession(t, "s1", log, len(log)+1)) {
		t.Error("EncodeFramed differs from a single-chunk FrameWriter stream")
	}
}

// TestFrameTruncation pins the hardening contract: a framed stream cut
// anywhere — mid-magic, mid-header, mid-payload, or just missing its end
// frame — fails with io.ErrUnexpectedEOF, never a clean EOF, never a hang.
func TestFrameTruncation(t *testing.T) {
	log := recordFrameLog(t)
	stream := frameSession(t, "sess", log, 32)
	for cut := 0; cut < len(stream); cut++ {
		_, _, err := decodeFramed(t, stream[:cut])
		if err == nil {
			t.Fatalf("cut %d/%d: truncated stream decoded cleanly", cut, len(stream))
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			// Some cuts corrupt rather than truncate (a torn uvarint can
			// still be a syntax error); both are failures, but a cut that
			// only removes bytes must never read as a clean end.
			continue
		}
	}
}

// TestFrameBadMagic pins rejection of non-framed input.
func TestFrameBadMagic(t *testing.T) {
	for _, in := range [][]byte{
		[]byte("XXXX"),
		[]byte("TLF2rest"),
		recordFrameLog(t), // a raw (unframed) log is not a framed stream
	} {
		fr := tracelog.NewFrameReader(bytes.NewReader(in))
		if _, _, err := fr.Handshake(); err == nil {
			t.Errorf("handshake accepted %q...", in[:4])
		}
	}
}

// TestFrameOversizedClaim pins that hostile length claims are rejected
// before allocation, for both control and events frames.
func TestFrameOversizedClaim(t *testing.T) {
	// hello frame claiming ~1 GiB payload.
	in := append(append([]byte("TLF1"), 1), 0xff, 0xff, 0xff, 0xff, 0x04)
	fr := tracelog.NewFrameReader(bytes.NewReader(in))
	if _, _, err := fr.Handshake(); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("oversized hello claim: err = %v, want limit error", err)
	}
	// events frame (after a valid hello) claiming > MaxFramePayload.
	var buf bytes.Buffer
	fw := tracelog.NewFrameWriter(&buf)
	if err := fw.Hello("x"); err != nil {
		t.Fatal(err)
	}
	evil := append(buf.Bytes(), 2)
	evil = append(evil, 0xff, 0xff, 0xff, 0xff, 0x7f) // ~34 GB claim
	fr = tracelog.NewFrameReader(bytes.NewReader(evil))
	if _, _, err := fr.Handshake(); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, fr); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("oversized events claim: err = %v, want limit error", err)
	}
}

// TestFrameErrorFrame pins that a peer error frame surfaces as ErrRemote.
func TestFrameErrorFrame(t *testing.T) {
	var buf bytes.Buffer
	fw := tracelog.NewFrameWriter(&buf)
	if err := fw.Error("session rejected"); err != nil {
		t.Fatal(err)
	}
	fr := tracelog.NewFrameReader(bytes.NewReader(buf.Bytes()))
	if _, err := fr.Response(); !errors.Is(err, tracelog.ErrRemote) {
		t.Errorf("Response error = %v, want ErrRemote", err)
	}
	// ... and mid-event-stream too.
	var s bytes.Buffer
	fw = tracelog.NewFrameWriter(&s)
	fw.Hello("x")
	fw.Error("died")
	stream := s.Bytes()
	if _, _, err := decodeFramed(t, stream); !errors.Is(err, tracelog.ErrRemote) {
		t.Errorf("stream error frame = %v, want ErrRemote", err)
	}
}

// TestFrameAssignHandshake pins the router→backend session opener: an assign
// frame opens a stream exactly like a hello, carrying the session name, and
// the events behind it decode unchanged.
func TestFrameAssignHandshake(t *testing.T) {
	log := recordFrameLog(t)
	var buf bytes.Buffer
	fw := tracelog.NewFrameWriter(&buf)
	if err := fw.Assign("fwd-7"); err != nil {
		t.Fatal(err)
	}
	if err := fw.Events(log); err != nil {
		t.Fatal(err)
	}
	if err := fw.End(); err != nil {
		t.Fatal(err)
	}
	fr := tracelog.NewFrameReader(bytes.NewReader(buf.Bytes()))
	kind, name, err := fr.Handshake()
	if err != nil {
		t.Fatal(err)
	}
	if kind != tracelog.FrameAssign || name != "fwd-7" {
		t.Fatalf("handshake = (%v, %q), want (assign, fwd-7)", kind, name)
	}
	if _, err := io.Copy(io.Discard, fr); err != nil {
		t.Fatalf("event stream behind assign: %v", err)
	}
}

// TestBackendReportRoundTrip pins the structured response path: payload bytes
// survive verbatim, error frames surface typed, oversized sends are refused
// writer-side.
func TestBackendReportRoundTrip(t *testing.T) {
	payload := []byte{0x01, 0xfe, 0x00, 0x42}
	var buf bytes.Buffer
	if err := tracelog.NewFrameWriter(&buf).BackendReport(payload); err != nil {
		t.Fatal(err)
	}
	got, err := tracelog.NewFrameReader(bytes.NewReader(buf.Bytes())).BackendResponse()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("BackendResponse = %x, want %x", got, payload)
	}

	var ebuf bytes.Buffer
	tracelog.NewFrameWriter(&ebuf).Error("backend lost session")
	if _, err := tracelog.NewFrameReader(bytes.NewReader(ebuf.Bytes())).BackendResponse(); !errors.Is(err, tracelog.ErrRemote) {
		t.Errorf("error frame = %v, want ErrRemote", err)
	}

	if err := tracelog.NewFrameWriter(io.Discard).BackendReport(make([]byte, tracelog.MaxFramePayload+1)); err == nil {
		t.Error("oversized backend report accepted by writer")
	}
}

// TestBackendStatsRoundTrip pins the census exchange: an empty request opens
// the stream, the encoded census comes back verbatim.
func TestBackendStatsRoundTrip(t *testing.T) {
	var req bytes.Buffer
	if err := tracelog.NewFrameWriter(&req).BackendStats(nil); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := tracelog.NewFrameReader(bytes.NewReader(req.Bytes())).Handshake()
	if err != nil {
		t.Fatal(err)
	}
	if kind != tracelog.FrameBackendStats || payload != "" {
		t.Fatalf("handshake = (%v, %q), want (backend-stats, \"\")", kind, payload)
	}

	census := []byte("backend=b1 sessions=3")
	var resp bytes.Buffer
	if err := tracelog.NewFrameWriter(&resp).BackendStats(census); err != nil {
		t.Fatal(err)
	}
	got, err := tracelog.NewFrameReader(bytes.NewReader(resp.Bytes())).BackendStatsResponse()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, census) {
		t.Errorf("BackendStatsResponse = %q, want %q", got, census)
	}
}

// TestCopyFrameVerbatim pins the router pump: copying a whole framed stream
// frame-by-frame reproduces it byte-for-byte, so the backend decodes exactly
// what the client sent.
func TestCopyFrameVerbatim(t *testing.T) {
	log := recordFrameLog(t)
	stream := frameSession(t, "sess", log, 48)

	fr := tracelog.NewFrameReader(bytes.NewReader(stream))
	var out bytes.Buffer
	fw := tracelog.NewFrameWriter(&out)
	for {
		kind, err := tracelog.CopyFrame(fw, fr)
		if err != nil {
			t.Fatal(err)
		}
		if kind == tracelog.FrameEnd {
			break
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), stream) {
		t.Error("copied stream differs from the original")
	}

	// Truncation mid-payload surfaces as io.ErrUnexpectedEOF, and the
	// oversized-claim bound applies before any copying.
	fr = tracelog.NewFrameReader(bytes.NewReader(stream[:len(stream)-3]))
	for {
		kind, err := tracelog.CopyFrame(tracelog.NewFrameWriter(io.Discard), fr)
		if err != nil {
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("truncated copy error = %v, want unexpected EOF", err)
			}
			break
		}
		if kind == tracelog.FrameEnd {
			t.Fatal("truncated stream copied to a clean end")
		}
	}
}

// TestFrameResponseRoundTrip pins the report response path.
func TestFrameResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := tracelog.NewFrameWriter(&buf)
	const report = "== 3 distinct location(s)\n"
	if err := fw.Report([]byte(report)); err != nil {
		t.Fatal(err)
	}
	fr := tracelog.NewFrameReader(bytes.NewReader(buf.Bytes()))
	got, err := fr.Response()
	if err != nil {
		t.Fatal(err)
	}
	if got != report {
		t.Errorf("Response = %q, want %q", got, report)
	}
}
