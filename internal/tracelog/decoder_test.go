package tracelog

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/trace"
)

// errClass folds a decode error into what a caller can act on: a clean end,
// a truncated log, or a corrupt one.
func errClass(err error) string {
	switch {
	case err == nil || err == io.EOF:
		return "eof"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "truncated"
	default:
		return "corrupt"
	}
}

// retain appends a copy of ev that survives the decoder's arena reuse.
func retain(out []Event, ev *Event) []Event {
	e := *ev
	e.Segment.In = slices.Clone(ev.Segment.In)
	return append(out, e)
}

// drainNext decodes to the end through next, with a fresh zero Event per
// call so that two decoders' results compare field by field.
func drainNext(next func(*Event) error) ([]Event, error) {
	var out []Event
	for {
		var ev Event
		if err := next(&ev); err != nil {
			return out, err
		}
		out = retain(out, &ev)
	}
}

// drainBatches decodes to the end through NextBatch with the given batch
// size, checking the arena contract on the way: every event of a batch keeps
// its edges until the next call.
func drainBatches(d *Decoder, size int) ([]Event, error) {
	var out []Event
	for {
		evs := make([]Event, size)
		n, err := d.NextBatch(evs)
		for i := range evs[:n] {
			out = retain(out, &evs[i])
		}
		if err != nil {
			return out, err
		}
	}
}

func sameEvents(t *testing.T, what string, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !slices.Equal(g.Segment.In, w.Segment.In) {
			t.Fatalf("%s: event %d: edges %v, want %v", what, i, g.Segment.In, w.Segment.In)
		}
		g.Segment.In, w.Segment.In = nil, nil
		if g.Op != w.Op || g.Access != w.Access || g.Block != w.Block || g.Sync != w.Sync || g.Request != w.Request ||
			g.Segment.Seg != w.Segment.Seg || g.Segment.Thread != w.Segment.Thread ||
			g.Thread != w.Thread || g.Parent != w.Parent || g.Lock != w.Lock || g.LockKind != w.LockKind || g.Stack != w.Stack {
			t.Fatalf("%s: event %d:\n got %+v\nwant %+v", what, i, g, w)
		}
	}
}

// chunkReader hands out at most n bytes per Read.
type chunkReader struct {
	data []byte
	n    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.n)], c.data)
	c.data = c.data[n:]
	return n, nil
}

// smallWindow makes d start from a window of n bytes, so that logs of a few
// hundred bytes exercise the tail carry-over and the window growth that real
// streams meet every 64 KiB and every megabyte tag.
func smallWindow(d *Decoder, n int) *Decoder {
	d.win = make([]byte, n)
	return d
}

// checkAgainstReference decodes data through the reference decoder and
// through the slice-native one — by Next and by NextBatch, whole and in
// chunks, with the real window and with a tiny one — and demands the same
// events, the same error class and the same Events() from all of them.
func checkAgainstReference(t *testing.T, data []byte, chunk int) {
	t.Helper()
	ref := newRefDecoder(bytes.NewReader(data))
	want, wantErr := drainNext(ref.Next)

	reader := func() io.Reader {
		if chunk <= 0 {
			return bytes.NewReader(data)
		}
		return &chunkReader{data: data, n: chunk}
	}
	check := func(what string, d *Decoder, got []Event, err error) {
		t.Helper()
		if errClass(err) != errClass(wantErr) {
			t.Fatalf("%s: error %v, reference %v", what, err, wantErr)
		}
		sameEvents(t, what, got, want)
		if d.Events() != ref.Events() {
			t.Fatalf("%s: Events() = %d, reference %d", what, d.Events(), ref.Events())
		}
	}
	d := NewDecoder(reader())
	got, err := drainNext(d.Next)
	check("Next", d, got, err)

	d = smallWindow(NewDecoder(reader()), 8)
	got, err = drainNext(d.Next)
	check("Next, 8-byte window", d, got, err)

	d = NewDecoder(reader())
	got, err = drainBatches(d, 7)
	check("NextBatch", d, got, err)

	d = smallWindow(NewDecoder(reader()), 8)
	got, err = drainBatches(d, 3)
	check("NextBatch, 8-byte window", d, got, err)
}

// goldenLogs returns the committed scenario corpus.
func goldenLogs(t testing.TB) [][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "scenario", "testdata", "golden", "*.trace"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no golden corpus traces found (internal/scenario/testdata/golden)")
	}
	logs := make([][]byte, len(paths))
	for i, p := range paths {
		if logs[i], err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	return logs
}

// wideEvents delivers events whose fields need multi-byte varints, a tag past
// the one-byte length prefix and an edge list longer than the small test
// windows: the shapes the golden corpus, with its small IDs, lacks.
func wideEvents(s trace.Sink) {
	allOpcodeEvents(s)
	s.Alloc(&trace.Block{ID: 1 << 30, Base: 1<<63 + 5, Size: 1 << 31, Tag: strings.Repeat("tag-", 70), Thread: 1 << 20, Stack: 1 << 29})
	edges := make([]trace.SegmentEdge, 40)
	for i := range edges {
		edges[i] = trace.SegmentEdge{From: trace.SegmentID(1<<21 + i), Kind: trace.Queue}
	}
	s.Segment(&trace.SegmentStart{Seg: 1 << 22, Thread: 300, In: edges})
	s.Segment(&trace.SegmentStart{Seg: 1<<22 + 1, Thread: 300})
	s.Access(&trace.Access{Thread: 300, Seg: 1 << 22, Block: 1 << 30, Addr: 1<<63 + 9, Off: 4, Size: 8, Kind: trace.Write, Stack: 1 << 29})
	s.Free(&trace.Block{ID: 1 << 30}, 300, 1<<29+1)
	s.Free(&trace.Block{ID: 1 << 30}, 300, 1<<29+2) // double free: bare ID
}

// recordWithBounds encodes the events and returns the log with the offset at
// which every event ends: the events are encoded a second time one by one,
// flushing after each.
func recordWithBounds(t testing.TB, emit func(trace.Sink)) ([]byte, []int) {
	t.Helper()
	var whole bytes.Buffer
	rec := NewRecorder(&whole)
	emit(rec)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := drainNext(newRefDecoder(bytes.NewReader(whole.Bytes())).Next)
	if err != io.EOF {
		t.Fatal(err)
	}
	var log bytes.Buffer
	rec = NewRecorder(&log)
	bounds := make([]int, len(evs))
	for i := range evs {
		evs[i].Deliver(rec)
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		bounds[i] = log.Len()
	}
	if !bytes.Equal(log.Bytes(), whole.Bytes()) {
		t.Fatal("events encoded one by one differ from the log they were decoded from")
	}
	return log.Bytes(), bounds
}

// FuzzDecoderDifferential holds the slice-native decoder to the decoder it
// replaced: whatever the bytes and however the reader cuts them up, both give
// the same event sequence, the same error class and the same Events().
func FuzzDecoderDifferential(f *testing.F) {
	for _, log := range goldenLogs(f) {
		f.Add(log, uint16(0))
		f.Add(log[:len(log)/2], uint16(1))
		mut := bytes.Clone(log)
		mut[len(mut)/3] ^= 0xff
		f.Add(mut, uint16(5))
	}
	wide, _ := recordWithBounds(f, wideEvents)
	f.Add(wide, uint16(0))
	f.Add(wide, uint16(3))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0xfe}, uint16(0))
	f.Add([]byte{7, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint16(0))  // absurd edge count
	f.Add([]byte{5, 1, 1, 4, 1, 1, 0xff, 0xff, 0xff, 0xff, 0x0f}, uint16(0))                 // absurd tag length
	f.Add([]byte{11, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}, uint16(2)) // tenth varint byte > 1
	f.Add([]byte{11, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, uint16(0)) // ten continuation bytes
	f.Add([]byte{11, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, uint16(0))       // cut inside an overlong varint

	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		checkAgainstReference(t, data, int(chunk))
	})
}

// TestDecoderChunking: the golden corpus and the wide events decode to the
// same events however the reader delivers them — a byte at a time, in
// halves, with data and EOF in one Read, in random chunks.
func TestDecoderChunking(t *testing.T) {
	wide, _ := recordWithBounds(t, wideEvents)
	rng := rand.New(rand.NewSource(1))
	for i, log := range append(goldenLogs(t), wide) {
		want, err := drainNext(newRefDecoder(bytes.NewReader(log)).Next)
		if err != io.EOF {
			t.Fatalf("log %d: reference: %v", i, err)
		}
		readers := map[string]func() io.Reader{
			"one-byte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(log)) },
			"half":     func() io.Reader { return iotest.HalfReader(bytes.NewReader(log)) },
			"data+eof": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(log)) },
			"random":   func() io.Reader { return &chunkReader{data: log, n: 1 + rng.Intn(40)} },
		}
		for name, reader := range readers {
			for _, window := range []int{0, 8, 64} {
				d := NewDecoder(reader())
				if window > 0 {
					smallWindow(d, window)
				}
				got, err := drainNext(d.Next)
				if err != io.EOF {
					t.Fatalf("log %d, %s reader, window %d: %v", i, name, window, err)
				}
				sameEvents(t, name+" Next", got, want)

				d = NewDecoder(reader())
				if window > 0 {
					smallWindow(d, window)
				}
				got, err = drainBatches(d, 5)
				if err != io.EOF {
					t.Fatalf("log %d, %s reader, window %d: NextBatch: %v", i, name, window, err)
				}
				sameEvents(t, name+" NextBatch", got, want)
			}
		}
	}
}

// TestDecoderTruncationEveryOffset cuts a log at every byte. A cut on an
// event boundary is a clean end after exactly the events before it; a cut
// inside an event is io.ErrUnexpectedEOF — never io.EOF, never a panic — and
// Events() counts the truncated event.
func TestDecoderTruncationEveryOffset(t *testing.T) {
	log, bounds := recordWithBounds(t, wideEvents)
	for cut := 0; cut <= len(log); cut++ {
		whole, _ := slices.BinarySearch(bounds, cut+1) // events ending at or before cut
		onBoundary := cut == 0 || slices.Contains(bounds, cut)
		for _, window := range []int{0, 8} {
			d := NewDecoder(bytes.NewReader(log[:cut]))
			if window > 0 {
				smallWindow(d, window)
			}
			got, err := drainBatches(d, 4)
			if len(got) != whole {
				t.Fatalf("cut %d: %d events, want %d", cut, len(got), whole)
			}
			if onBoundary {
				if err != io.EOF || d.Events() != int64(whole) {
					t.Fatalf("cut %d on a boundary: err %v, Events() %d, want EOF after %d", cut, err, d.Events(), whole)
				}
			} else if err != io.ErrUnexpectedEOF || d.Events() != int64(whole)+1 {
				t.Fatalf("cut %d inside event %d: err %v, Events() %d, want ErrUnexpectedEOF and %d",
					cut, whole, err, d.Events(), whole+1)
			}
		}
		checkAgainstReference(t, log[:cut], 0)
	}
}

// TestDecoderBitFlips flips every bit of a log in turn (cf. the
// error-propagation study in PAPERS.md). Each mutant must end in a typed
// error or decode to a clean end — whichever the reference decoder says —
// and never panic.
func TestDecoderBitFlips(t *testing.T) {
	log, _ := recordWithBounds(t, wideEvents)
	outcome := map[string]int{}
	for i := range log {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(log)
			mut[i] ^= 1 << bit
			checkAgainstReference(t, mut, 0)
			_, err := drainNext(NewDecoder(bytes.NewReader(mut)).Next)
			if c := errClass(err); c == "corrupt" && !strings.HasPrefix(err.Error(), "tracelog: ") {
				t.Fatalf("byte %d bit %d: untyped error %v", i, bit, err)
			} else {
				outcome[c]++
			}
		}
	}
	t.Logf("%d single-bit mutants: %d decode to a clean end, %d truncated, %d rejected as corrupt",
		8*len(log), outcome["eof"], outcome["truncated"], outcome["corrupt"])
}

// TestDecoderTrickledGiants: the two events that can outgrow the window — a
// maximal tag and a maximal edge list — decode correctly when they arrive a
// byte per Read, in time linear in their size, and a decoder that grew for
// them is not pooled.
func TestDecoderTrickledGiants(t *testing.T) {
	edges := make([]trace.SegmentEdge, maxSegmentEdges)
	for i := range edges {
		edges[i] = trace.SegmentEdge{From: trace.SegmentID(i), Kind: trace.Program}
	}
	tag := strings.Repeat("g", maxTagLen)
	log, _ := recordWithBounds(t, func(s trace.Sink) {
		s.ThreadStart(1, 0)
		s.Segment(&trace.SegmentStart{Seg: 2, Thread: 1, In: edges})
		s.Alloc(&trace.Block{ID: 1, Base: 0x1000, Size: 8, Tag: tag, Thread: 1})
		s.ThreadExit(1)
	})
	d := AcquireDecoder(iotest.OneByteReader(bytes.NewReader(log)))
	t0 := time.Now()
	got, err := drainBatches(d, 8)
	if err != io.EOF {
		t.Fatal(err)
	}
	// A tenth of a second when the edge list resumes, a minute and a half
	// when it is parsed again per byte: the limit sits far from both.
	if took := time.Since(t0); took > 20*time.Second {
		t.Errorf("trickled giants took %v: not linear in their size", took)
	}
	if len(got) != 4 || !slices.Equal(got[1].Segment.In, edges) || got[2].Block.Tag != tag || got[3].Op != OpThreadExit {
		t.Fatalf("giant events did not survive the trickle: %d events", len(got))
	}
	if len(d.win) <= windowSize {
		t.Fatalf("window is %d bytes after a %d-byte event", len(d.win), maxTagLen)
	}
	d.Release()
	for i := 0; i < 4; i++ {
		if p := AcquireDecoder(nil); len(p.win) > windowSize || cap(p.edges) > maxPooledEdges {
			t.Fatalf("pool handed out a decoder with a %d-byte window and %d edges of arena", len(p.win), cap(p.edges))
		}
	}
}

// noProgressReader never delivers and never fails.
type noProgressReader struct{}

func (noProgressReader) Read([]byte) (int, error) { return 0, nil }

func TestDecoderNoProgress(t *testing.T) {
	var ev Event
	if err := NewDecoder(noProgressReader{}).Next(&ev); err != io.ErrNoProgress {
		t.Fatalf("Next on a reader that never delivers: %v, want io.ErrNoProgress", err)
	}
}
