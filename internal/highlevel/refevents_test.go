package highlevel

import (
	"slices"
	"testing"

	"repro/internal/trace"
)

// This file keeps the map-based event path that Detector ran before its
// views moved to key slices — Acquire, Access, Release and viewKey,
// verbatim apart from the type names — as the test oracle refRecorder.
// FuzzViewRecording feeds one event sequence to both and requires the same
// recorded views, field for field and in order, and the same Finish
// warnings.

// refView is the map-based critical section.
type refView struct {
	vars  map[varKey]struct{}
	keys  []varKey      // vars sorted; kept only for recorded views
	stack trace.StackID // acquisition site
	addr  trace.Addr    // representative address (first access)
	block trace.BlockID
}

// refRecorder is the map-based event path: open sections as a map per
// thread, a view's variables as a set, and a sorted key per Release.
type refRecorder struct {
	trace.BaseSink
	cfg      Config
	cells    map[trace.BlockID]int
	open     map[trace.ThreadID]map[trace.LockID]*refView
	views    map[trace.LockID]map[trace.ThreadID][]*refView
	viewKeys map[trace.LockID]map[trace.ThreadID]map[string]bool

	pool       []*refView
	scratchKey []varKey
	scratchBuf []byte
}

func newRefRecorder(cfg Config) *refRecorder {
	return &refRecorder{
		cfg:      cfg.withDefaults(),
		cells:    make(map[trace.BlockID]int),
		open:     make(map[trace.ThreadID]map[trace.LockID]*refView),
		views:    make(map[trace.LockID]map[trace.ThreadID][]*refView),
		viewKeys: make(map[trace.LockID]map[trace.ThreadID]map[string]bool),
	}
}

// refViewKey canonicalises a view's variable set into a binary string usable as
// a dedup map key: the varKeys sorted and appended into the caller-owned
// scratch buffers, which are returned for reuse. On the common path — the
// view was seen before — probing seen[string(key)] with the returned bytes
// is allocation-free (the compiler elides the conversion in a map lookup),
// so only genuinely new views pay for a key string.
func refViewKey(v *refView, scratchKeys []varKey, scratchBuf []byte) ([]varKey, []byte) {
	keys := scratchKeys[:0]
	for k := range v.vars {
		keys = append(keys, k)
	}
	// Insertion sort: views hold a handful of variables, and sort.Slice's
	// closure would allocate on every Release.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && varKeyLess(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	buf := scratchBuf[:0]
	for _, k := range keys {
		buf = append(buf,
			byte(k.block), byte(k.block>>8), byte(k.block>>16), byte(k.block>>24),
			byte(k.gran), byte(k.gran>>8), byte(k.gran>>16), byte(k.gran>>24))
	}
	return keys, buf
}

// Acquire implements trace.Sink: opens a fresh view for the critical
// section.
func (d *refRecorder) Acquire(t trace.ThreadID, l trace.LockID, _ trace.LockKind, stack trace.StackID) {
	m, ok := d.open[t]
	if !ok {
		m = make(map[trace.LockID]*refView)
		d.open[t] = m
	}
	if n := len(d.pool); n > 0 {
		v := d.pool[n-1]
		d.pool = d.pool[:n-1]
		clear(v.vars)
		*v = refView{vars: v.vars, keys: v.keys[:0], stack: stack}
		m[l] = v
		return
	}
	m[l] = &refView{vars: make(map[varKey]struct{}), stack: stack}
}

// Release implements trace.Sink: finalises the critical section's view.
func (d *refRecorder) Release(t trace.ThreadID, l trace.LockID, _ trace.LockKind, _ trace.StackID) {
	m := d.open[t]
	v, ok := m[l]
	if !ok {
		return
	}
	delete(m, l)
	if len(v.vars) == 0 {
		d.pool = append(d.pool, v)
		return
	}
	byThread, ok := d.views[l]
	if !ok {
		byThread = make(map[trace.ThreadID][]*refView)
		d.views[l] = byThread
		d.viewKeys[l] = make(map[trace.ThreadID]map[string]bool)
	}
	seen := d.viewKeys[l][t]
	if seen == nil {
		seen = make(map[string]bool)
		d.viewKeys[l][t] = seen
	}
	keys, buf := refViewKey(v, d.scratchKey, d.scratchBuf)
	d.scratchKey, d.scratchBuf = keys, buf
	if seen[string(buf)] {
		d.pool = append(d.pool, v)
		return // identical view already recorded
	}
	seen[string(buf)] = true
	v.keys = append(v.keys[:0], keys...)
	byThread[t] = append(byThread[t], v)
}

// Alloc implements trace.Sink: the block's granules are the variables its
// accesses can touch.
func (d *refRecorder) Alloc(b *trace.Block) {
	d.cells[b.ID] = (int(b.Size) + d.cfg.Granule - 1) / d.cfg.Granule
}

// Free implements trace.Sink: accesses to a freed block touch no variable.
func (d *refRecorder) Free(b *trace.Block, _ trace.ThreadID, _ trace.StackID) {
	delete(d.cells, b.ID)
}

// Access implements trace.Sink: adds the granules the access touches inside
// its block to every critical section the thread currently has open.
func (d *refRecorder) Access(a *trace.Access) {
	m := d.open[a.Thread]
	if len(m) == 0 {
		return
	}
	lo, hi := trace.Granules(a.Off, a.Size, d.cfg.Granule, d.cells[a.Block])
	if lo >= hi {
		return
	}
	for _, v := range m {
		if len(v.vars) == 0 {
			v.addr = a.Addr
			v.block = a.Block
		}
		for g := lo; g < hi; g++ {
			v.vars[varKey{block: a.Block, gran: uint32(g)}] = struct{}{}
		}
	}
}

// finish runs the production Finish over the oracle's recorded views.
func (d *refRecorder) finish(col trace.Reporter) {
	det := New(d.cfg, col)
	for l, byThread := range d.views {
		for t, vs := range byThread {
			rec := &viewSet{lockThread: lockThread{l, t}}
			for _, v := range vs {
				rec.views = append(rec.views,
					&view{keys: v.keys, stack: v.stack, addr: v.addr, block: v.block})
			}
			det.recs[rec.lockThread] = rec
		}
	}
	det.Finish()
}

// The event program of FuzzViewRecording: four bytes per op. The first
// byte's low three bits select the op and its bits 3–4 the thread (1–4);
// the other three bytes are its operands a, b, c. Blocks 1 and 2 start
// allocated, 64 and 1024 bytes; block 3 starts unknown.
const (
	opAcquire = iota // lock a%4+1, stack = op index + 1
	opRelease        // lock a%4+1
	opAccess         // block a%4, offset b | (c>>3)<<8, size accessSizes[c%8]
	opAlloc          // block a%4, size 4·b + c%4
	opFree           // block a%4
	opRun            // c accesses of 4 bytes to block a%4 from granule b, in runPattern a>>2 % 8
	numOps
)

// accessSizes are the sizes opAccess draws from: zero, sub-granule,
// granule, straddling and 1 MiB.
var accessSizes = [8]uint32{0, 1, 2, 4, 8, 6, 64, 1 << 20}

// runPattern orders an opRun's granules.
const (
	runAscending       = iota // b, b+1, …
	runDescending             // b+c-1, …, b
	runAlternatingUp          // b, b+1, b, b+1, …
	runAlternatingDown        // b+1, b, b+1, b, …
	runRepeated               // b, b, …
	runStrided                // b + 5s mod 17: seventeen granules, revisited out of order
)

type eventOp struct{ op, t, a, b, c uint8 }

func (o eventOp) bytes() []byte { return []byte{o.op | o.t<<3, o.a, o.b, o.c} }

func encodeOps(ops ...eventOp) []byte {
	var out []byte
	for _, o := range ops {
		out = append(out, o.bytes()...)
	}
	return out
}

const maxOps = 512

// decodedEvent is one trace event of an event program, with the Sink method
// it is delivered by.
type decodedEvent struct {
	op     uint8
	t      trace.ThreadID
	l      trace.LockID
	stack  trace.StackID
	block  trace.Block
	access trace.Access
}

// decodeOps expands an event program into trace events; opRun becomes one
// opAccess per step.
func decodeOps(data []byte) []decodedEvent {
	evs := []decodedEvent{
		{op: opAlloc, block: trace.Block{ID: 1, Size: 64}},
		{op: opAlloc, block: trace.Block{ID: 2, Size: 1024}},
	}
	for i := 0; i+4 <= len(data) && i/4 < maxOps; i += 4 {
		op, a, b, c := data[i]&7%numOps, data[i+1], data[i+2], data[i+3]
		t := trace.ThreadID(data[i]>>3&3 + 1)
		blk := trace.BlockID(a % 4)
		access := func(off, size uint32) decodedEvent {
			return decodedEvent{op: opAccess, t: t, access: trace.Access{
				Thread: t, Block: blk, Addr: trace.Addr(uint64(blk)<<24 + uint64(off)),
				Off: off, Size: size, Kind: trace.Write, Stack: trace.StackID(i/4 + 1),
			}}
		}
		switch op {
		case opAcquire, opRelease:
			evs = append(evs, decodedEvent{op: op, t: t, l: trace.LockID(a%4 + 1), stack: trace.StackID(i/4 + 1)})
		case opAccess:
			evs = append(evs, access(uint32(b)|uint32(c>>3)<<8, accessSizes[c%8]))
		case opAlloc:
			evs = append(evs, decodedEvent{op: op, block: trace.Block{ID: blk, Size: 4*uint32(b) + uint32(c%4)}})
		case opFree:
			evs = append(evs, decodedEvent{op: op, t: t, block: trace.Block{ID: blk}})
		case opRun:
			for s := 0; s < int(c); s++ {
				g := int(b)
				switch a >> 2 % 8 {
				case runAscending:
					g += s
				case runDescending:
					g += int(c) - 1 - s
				case runAlternatingUp:
					g += s % 2
				case runAlternatingDown:
					g += 1 - s%2
				case runStrided:
					g += 5 * s % 17
				}
				evs = append(evs, access(uint32(4*g), 4))
			}
		}
	}
	return evs
}

// deliver sends one event to a sink.
func (e *decodedEvent) deliver(s trace.Sink) {
	switch e.op {
	case opAcquire:
		s.Acquire(e.t, e.l, trace.Mutex, e.stack)
	case opRelease:
		s.Release(e.t, e.l, trace.Mutex, e.stack)
	case opAccess:
		s.Access(&e.access)
	case opAlloc:
		s.Alloc(&e.block)
	case opFree:
		s.Free(&e.block, e.t, trace.NoStack)
	}
}

// recordingSeeds is the seed corpus of FuzzViewRecording;
// TestViewRecordingCoverage checks that it reaches every case the slice
// event path must get right.
func recordingSeeds() [][]byte {
	acq := func(t, l uint8) eventOp { return eventOp{opAcquire, t, l, 0, 0} }
	rel := func(t, l uint8) eventOp { return eventOp{opRelease, t, l, 0, 0} }
	acc := func(t, blk uint8, off uint16, size uint8) eventOp {
		return eventOp{opAccess, t, blk, uint8(off), uint8(off>>8)<<3 | size}
	}
	run := func(t, blk, pattern, from, n uint8) eventOp { return eventOp{opRun, t, blk | pattern<<2, from, n} }
	return [][]byte{
		// Nested locks: L2 inside L1, both see the inner access; then
		// L1 re-acquired while open, which drops its first view.
		encodeOps(acq(0, 0), acc(0, 1, 0, 3), acq(0, 1), acc(0, 1, 8, 4), rel(0, 1),
			acc(0, 1, 16, 3), acq(0, 0), acc(0, 2, 4, 3), rel(0, 0),
			acq(1, 0), acc(1, 1, 0, 4), acc(1, 2, 4, 3), rel(1, 0)),
		// Releases of locks never acquired, by a thread holding another
		// lock and by one holding none.
		encodeOps(rel(2, 3), acq(0, 0), rel(0, 2), acc(0, 1, 4, 3), rel(0, 0), rel(3, 0)),
		// Zero-size, block-straddling (offset 62 of 64 bytes) and 1 MiB
		// accesses in one section; then the same section again, deduped.
		encodeOps(acq(0, 0), acc(0, 1, 5, 0), acc(0, 1, 62, 4), acc(0, 2, 0, 7), rel(0, 0),
			acq(0, 0), acc(0, 1, 5, 0), acc(0, 1, 62, 4), acc(0, 2, 0, 7), rel(0, 0)),
		// Unknown block 3, then block 3 allocated and block 1 freed:
		// accesses to the freed block record nothing.
		encodeOps(acq(1, 1), acc(1, 3, 0, 3), acc(1, 1, 0, 3), rel(1, 1),
			eventOp{opAlloc, 0, 3, 16, 0}, eventOp{opFree, 0, 1, 0, 0},
			acq(1, 1), acc(1, 3, 0, 3), acc(1, 1, 0, 3), acc(1, 3, 60, 4), rel(1, 1),
			acq(1, 1), acc(1, 1, 0, 3), rel(1, 1)),
		// A repeated granule and two granules alternating, both ways,
		// past the compaction threshold, under two nested locks; then a
		// descending run of 40 granules, and the ascending run of the
		// same granules, which must dedup against it.
		encodeOps(acq(0, 0), run(0, 2, runRepeated, 3, 30), acq(0, 1), run(0, 2, runAlternatingUp, 7, 50),
			rel(0, 1), acq(0, 1), run(0, 2, runAlternatingDown, 7, 50), rel(0, 1), rel(0, 0),
			acq(2, 0), run(2, 2, runDescending, 10, 40), rel(2, 0),
			acq(2, 0), run(2, 2, runAscending, 10, 40), rel(2, 0)),
		// Seventeen granules revisited out of order, 100 accesses: every
		// compaction removes duplicates, and the section's view equals
		// one that touched them once each.
		encodeOps(acq(3, 2), run(3, 2, runStrided, 20, 100), rel(3, 2),
			acq(3, 2), run(3, 2, runAscending, 20, 17), rel(3, 2)),
		// A split view beside large views: Finish reports.
		encodeOps(acq(0, 0), run(0, 1, runAscending, 0, 16), rel(0, 0),
			acq(1, 0), run(1, 1, runAscending, 0, 8), rel(1, 0),
			acq(1, 0), run(1, 1, runDescending, 8, 8), rel(1, 0),
			acq(2, 0), run(2, 1, runAscending, 4, 8), acc(2, 2, 0, 3), rel(2, 0)),
	}
}

// FuzzViewRecording holds Detector's slice event path to refRecorder's
// map-based one on generated event programs.
func FuzzViewRecording(f *testing.F) {
	for _, s := range recordingSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRecording(t, decodeOps(data))
	})
}

// checkRecording replays evs into both event paths and fails on the first
// recorded view or Finish warning that differs.
func checkRecording(t *testing.T, evs []decodedEvent) {
	t.Helper()
	var got, want recorder
	d := New(Config{MinViewSize: 2}, &got)
	ref := newRefRecorder(Config{MinViewSize: 2})
	for i := range evs {
		evs[i].deliver(d)
		evs[i].deliver(ref)
	}
	compareViews(t, d, ref)
	d.Finish()
	ref.finish(&want)
	compareWarnings(t, got, want)
}

func compareViews(t *testing.T, d *Detector, ref *refRecorder) {
	t.Helper()
	views := recordedViews(d)
	if len(views) != len(ref.views) {
		t.Fatalf("views recorded under %d lock(s), oracle %d", len(views), len(ref.views))
	}
	for l, refByThread := range ref.views {
		byThread := views[l]
		if len(byThread) != len(refByThread) {
			t.Fatalf("lock %d: views of %d thread(s), oracle %d", l, len(byThread), len(refByThread))
		}
		for th, want := range refByThread {
			got := byThread[th]
			if len(got) != len(want) {
				t.Fatalf("lock %d thread %d: %d views, oracle %d", l, th, len(got), len(want))
			}
			for i, w := range want {
				g := got[i]
				if !slices.Equal(g.keys, w.keys) || g.stack != w.stack || g.addr != w.addr || g.block != w.block {
					t.Fatalf("lock %d thread %d view %d: keys %v stack %d addr %#x block %d; oracle keys %v stack %d addr %#x block %d",
						l, th, i, g.keys, g.stack, g.addr, g.block, w.keys, w.stack, w.addr, w.block)
				}
			}
		}
	}
}

// recordingCases names what a seed reaches on the event path.
type recordingCases struct {
	nested, reacquire, releaseNever, zeroSize, straddle, mib,
	unknownBlock, freedBlock, repeatedGranule, alternating,
	midCompaction, reported bool
}

// recordingCasesOf replays evs into a Detector and records which cases the
// accesses and lock operations reach inside open critical sections.
func recordingCasesOf(evs []decodedEvent, c *recordingCases) {
	var col recorder
	d := New(Config{MinViewSize: 2}, &col)
	acquired := map[trace.ThreadID]map[trace.LockID]bool{}
	freed := map[trace.BlockID]bool{}
	// The last two single-granule accesses per thread inside a section.
	type gran struct {
		b trace.BlockID
		g uint32
	}
	last := map[trace.ThreadID][]gran{}
	for i := range evs {
		e := &evs[i]
		open := d.open[e.t]
		switch e.op {
		case opAcquire:
			if openIndex(open, e.l) >= 0 {
				c.reacquire = true
			} else if len(open) > 0 {
				c.nested = true
			}
			if acquired[e.t] == nil {
				acquired[e.t] = map[trace.LockID]bool{}
			}
			acquired[e.t][e.l] = true
		case opRelease:
			if !acquired[e.t][e.l] {
				c.releaseNever = true
			}
		case opFree:
			freed[e.block.ID] = true
		case opAlloc:
			delete(freed, e.block.ID)
		case opAccess:
			if len(open) == 0 {
				break
			}
			a := &e.access
			n, known := d.cells[a.Block] // granules: 4 bytes each
			switch {
			case !known && freed[a.Block]:
				c.freedBlock = true
			case !known:
				c.unknownBlock = true
			case a.Size == 0:
				c.zeroSize = true
			case a.Size == 1<<20:
				c.mib = true
			case int(a.Off) < 4*n && int(a.Off+a.Size) > 4*n:
				c.straddle = true
			}
			if a.Size == 4 && a.Off%4 == 0 && known {
				g := gran{a.Block, a.Off / 4}
				h := append(last[e.t], g)
				if n := len(h); n >= 2 && h[n-2] == g {
					c.repeatedGranule = true
				}
				if n := len(h); n >= 3 && h[n-3] == g && h[n-2] != g {
					c.alternating = true
				}
				last[e.t] = h[max(0, len(h)-2):]
			}
		}
		logged := make([]int, len(open))
		for j, v := range open {
			logged[j] = len(v.keys)
		}
		e.deliver(d)
		// A view whose log shrank across an access was compacted, with
		// duplicates dropped, while its section was open.
		for j, v := range d.open[e.t] {
			if e.op == opAccess && len(v.keys) < logged[j] {
				c.midCompaction = true
			}
		}
	}
	d.Finish()
	c.reported = len(col) > 0
}

// TestViewRecordingCoverage checks that the seed corpus reaches every case
// the slice event path must handle like the map-based one, and runs every
// seed through the oracle comparison.
func TestViewRecordingCoverage(t *testing.T) {
	var c recordingCases
	for _, s := range recordingSeeds() {
		evs := decodeOps(s)
		checkRecording(t, evs)
		recordingCasesOf(decodeOps(s), &c)
	}
	for name, hit := range map[string]bool{
		"nested locks":                                 c.nested,
		"re-acquiring an open lock":                    c.reacquire,
		"a release of a never-acquired lock":           c.releaseNever,
		"a zero-size access":                           c.zeroSize,
		"a block-straddling access":                    c.straddle,
		"a 1 MiB access":                               c.mib,
		"an access to an unknown block":                c.unknownBlock,
		"an access to a freed block":                   c.freedBlock,
		"a repeated granule":                           c.repeatedGranule,
		"two granules alternating":                     c.alternating,
		"a compaction dropping duplicates mid-section": c.midCompaction,
		"a reported violation":                         c.reported,
	} {
		if !hit {
			t.Errorf("seed corpus never reaches %s", name)
		}
	}
}
