package tracelog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/intern"
	"repro/internal/trace"
)

// Op identifies the kind of a decoded event. The values coincide with the
// on-disk opcodes.
type Op uint8

// Decoded event kinds.
const (
	OpAccess      Op = Op(opAccess)
	OpAcquire     Op = Op(opAcquire)
	OpRelease     Op = Op(opRelease)
	OpContended   Op = Op(opContended)
	OpAlloc       Op = Op(opAlloc)
	OpFree        Op = Op(opFree)
	OpSegment     Op = Op(opSegment)
	OpSync        Op = Op(opSync)
	OpRequest     Op = Op(opRequest)
	OpThreadStart Op = Op(opThreadStart)
	OpThreadExit  Op = Op(opThreadExit)
)

// Event is one decoded log event in a uniform representation. Only the
// fields relevant to Op are meaningful. Holding events as values (rather
// than delivering them straight into sinks, as Replay does) is what lets the
// engine decode a log once, a batch at a time, and hand the same events to
// every tool or shard worker.
type Event struct {
	Op Op
	// Access is set for OpAccess.
	Access trace.Access
	// Block is set for OpAlloc and OpFree. It is a value copy: for OpFree it
	// carries the descriptor of the matching allocation, reconstructed by the
	// Decoder. The Tag string is interned process-wide (internal/intern), so
	// repeated tags share one allocation across every decoder and session.
	Block trace.Block
	// Segment is set for OpSegment. Its In slice points into an arena the
	// Decoder reuses: after Next it is valid only until the next call to
	// Next; after NextBatch, every event of the batch keeps its slice until
	// the next call to NextBatch (Reset and Release end both). A consumer
	// that retains segment events beyond that must copy the slice —
	// copy-on-retain, the same discipline trace.Sink already demands for
	// event pointers. The engine's batches do: a log replayed through
	// engine.Sequential is delivered batch by batch out of the decoder's
	// arena, and events arriving through a pipeline's trace.Sink methods are
	// copied into the batch's own arena.
	Segment trace.SegmentStart
	// Sync is set for OpSync.
	Sync trace.SyncEvent
	// Request is set for OpRequest.
	Request trace.Request
	// Thread is set for OpAcquire, OpRelease, OpContended, OpFree,
	// OpThreadStart and OpThreadExit.
	Thread trace.ThreadID
	// Parent is set for OpThreadStart.
	Parent trace.ThreadID
	// Lock and LockKind are set for OpAcquire, OpRelease and OpContended
	// (LockKind only for the first two).
	Lock     trace.LockID
	LockKind trace.LockKind
	// Stack is set for OpAcquire, OpRelease, OpContended and OpFree.
	Stack trace.StackID
}

// String returns the name of the trace.Sink callback the opcode is delivered
// through.
func (op Op) String() string {
	switch op {
	case OpAccess:
		return "Access"
	case OpAcquire:
		return "Acquire"
	case OpRelease:
		return "Release"
	case OpContended:
		return "Contended"
	case OpAlloc:
		return "Alloc"
	case OpFree:
		return "Free"
	case OpSegment:
		return "Segment"
	case OpSync:
		return "Sync"
	case OpRequest:
		return "Request"
	case OpThreadStart:
		return "ThreadStart"
	case OpThreadExit:
		return "ThreadExit"
	}
	return fmt.Sprintf("Op(%d)", uint8(op))
}

// Deliver invokes the Sink callback corresponding to the event. Pointers
// passed to the sink point into the Event itself, so the usual trace.Sink
// contract applies: the sink must not retain them beyond the call.
func (e *Event) Deliver(s trace.Sink) {
	switch e.Op {
	case OpAccess:
		s.Access(&e.Access)
	case OpAcquire:
		s.Acquire(e.Thread, e.Lock, e.LockKind, e.Stack)
	case OpRelease:
		s.Release(e.Thread, e.Lock, e.LockKind, e.Stack)
	case OpContended:
		s.Contended(e.Thread, e.Lock, e.Stack)
	case OpAlloc:
		s.Alloc(&e.Block)
	case OpFree:
		s.Free(&e.Block, e.Thread, e.Stack)
	case OpSegment:
		s.Segment(&e.Segment)
	case OpSync:
		s.Sync(&e.Sync)
	case OpRequest:
		s.Request(&e.Request)
	case OpThreadStart:
		s.ThreadStart(e.Thread, e.Parent)
	case OpThreadExit:
		s.ThreadExit(e.Thread)
	}
}

// Corruption bounds: a decoder must fail cleanly on a corrupt or hostile
// log, never allocate from an attacker-controlled length. The VM caps stacks
// far below these, so no legitimate log comes near them.
const (
	// maxSegmentEdges bounds a segment's incoming-edge count. Real segments
	// have a handful of edges (program order plus create/join/queue/...).
	maxSegmentEdges = 1 << 16
	// maxTagLen bounds an allocation tag's byte length.
	maxTagLen = 1 << 20
)

// maxEventFields is the most fixed uvarint fields any opcode carries (see
// fixedFields: OpAccess, with 9); the decode scratch array is sized to it
// with headroom for future opcodes.
const maxEventFields = 16

// blockChunk is the slab granule: live block descriptors are allocated 256
// at a time and recycled through a free list, so steady-state alloc/free
// traffic touches the heap only when the live set reaches a new high-water
// mark.
const blockChunk = 256

// blockSlab hands out *trace.Block descriptors from fixed-size chunks plus a
// free list of evicted descriptors. Chunks are never individually released
// (pointers into them live in the Decoder's block map), but reset rewinds
// the cursor so a reused Decoder recycles all of them.
type blockSlab struct {
	chunks [][]trace.Block
	ci     int // current chunk index
	next   int // next unused slot in chunks[ci]
	free   []*trace.Block
}

func (s *blockSlab) get() *trace.Block {
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free = s.free[:n-1]
		return b
	}
	for {
		if s.ci == len(s.chunks) {
			s.chunks = append(s.chunks, make([]trace.Block, blockChunk))
		}
		if c := s.chunks[s.ci]; s.next < len(c) {
			b := &c[s.next]
			s.next++
			return b
		}
		s.ci++
		s.next = 0
	}
}

func (s *blockSlab) put(b *trace.Block) {
	*b = trace.Block{}
	s.free = append(s.free, b)
}

func (s *blockSlab) reset() {
	s.ci, s.next = 0, 0
	s.free = s.free[:0]
}

// windowSize is the decoder's read window: the ingest clients' frame size, so
// one Read usually takes a whole frame straight off the connection.
const windowSize = 64 << 10

// Decoder reads a binary trace log event by event. It reconstructs block
// descriptors so that OpFree events carry the matching allocation, exactly
// as Replay does.
//
// The decoder is slice-native: it fills a read window with large Reads and
// parses events out of it with inline varint decoding, so the per-byte cost
// is an index and a compare, not an interface call. An event cut off by the
// window's end is carried to the front of the window as a tail and parsed
// again once more input has arrived; an event larger than the window (a huge
// tag or edge list, both bounded) grows it.
//
// The steady-state decode path is allocation-free: fixed-size field scratch,
// slab-recycled block descriptors (an OpFree evicts and recycles its
// descriptor, so the block table is bounded by the live set, not the event
// count), process-wide interned allocation tags, and a reused segment-edge
// arena (see Event.Segment). A Decoder is not safe for concurrent use.
type Decoder struct {
	r    io.Reader
	win  []byte // read window; win[pos:end] is input not yet decoded
	pos  int
	end  int
	rerr error // what r returned last (io.EOF included), due once the window is drained

	blocks map[trace.BlockID]*trace.Block
	slab   blockSlab
	events int64

	scratch [maxEventFields]uint64 // per-event field decode, no per-call slice
	edges   []trace.SegmentEdge    // Segment.In arena of the current Next or NextBatch

	// A segment event cut off inside its edge list resumes there after the
	// refill instead of parsing the list again, so that a peer trickling a
	// 65,536-edge event one byte per read costs linear, not quadratic, time:
	// the last segEdges entries of edges are the edges already parsed, and
	// they end segOff bytes into the event. Zero when nothing is pending.
	segOff, segEdges int
}

// NewDecoder creates a decoder reading the binary log from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r, blocks: make(map[trace.BlockID]*trace.Block)}
}

// Reset rewires the decoder to a new log, recycling its window, block slab
// and table: a decoder in a long-lived server (or a benchmark loop) decodes
// any number of streams with no per-stream allocation beyond what a larger
// live set or a new tag vocabulary demands.
func (d *Decoder) Reset(r io.Reader) {
	d.r = r
	d.pos, d.end, d.rerr = 0, 0, nil
	clear(d.blocks)
	d.slab.reset()
	d.events = 0
	d.segOff, d.segEdges = 0, 0
}

// Pooled decoders above these sizes are dropped, not reused: one hostile
// stream (a megabyte tag, a million live blocks) must not leave its
// high-water mark in every later session's decoder.
const (
	maxPooledEdges  = 4096
	maxPooledChunks = 64 // 16,384 live blocks
)

var decoderPool = sync.Pool{New: func() any { return NewDecoder(nil) }}

// AcquireDecoder returns a pooled decoder reading the binary log from r, so
// that a process decoding many streams — the ingest server's sessions —
// allocates windows and block tables once. Hand it back with Release.
func AcquireDecoder(r io.Reader) *Decoder {
	d := decoderPool.Get().(*Decoder)
	d.Reset(r)
	return d
}

// Release returns a decoder obtained from AcquireDecoder to the pool. The
// decoder, and every Segment.In slice it handed out, must not be used
// afterwards.
func (d *Decoder) Release() {
	d.r = nil // the pool must not keep a connection alive
	if len(d.win) > windowSize || cap(d.edges) > maxPooledEdges || len(d.slab.chunks) > maxPooledChunks {
		return
	}
	decoderPool.Put(d)
}

// Events returns the number of events decoded so far, counting an event
// whose payload turned out to be truncated.
func (d *Decoder) Events() int64 { return d.events }

var (
	// errShort reports that the window ends inside the event being parsed.
	// It never leaves the package.
	errShort = errors.New("tracelog: event continues past the read window")
	// errOverflow is binary.ReadUvarint's overflow, for a corrupt log.
	errOverflow = errors.New("tracelog: varint overflows a 64-bit integer")
)

// Failed parse positions. uvarint passes a negative index through, so a run
// of fields is decoded with one check at its end and the first failure is the
// one reported.
const (
	idxShort    = -1
	idxOverflow = -2
)

func idxErr(i int) error {
	if i == idxShort {
		return errShort
	}
	return errOverflow
}

// uvarint decodes the varint at b[i:] and returns it with the index of the
// byte after it, or with a failed parse position. It has the bounds of
// binary.ReadUvarint: at most ten bytes, the tenth at most 1.
func uvarint(b []byte, i int) (uint64, int) {
	if i < 0 {
		return 0, i
	}
	var x uint64
	for s := uint(0); s < 7*binary.MaxVarintLen64; s += 7 {
		if i >= len(b) {
			return 0, idxShort
		}
		c := b[i]
		i++
		if c < 0x80 {
			if s == 63 && c > 1 {
				return 0, idxOverflow
			}
			return x | uint64(c)<<s, i
		}
		x |= uint64(c&0x7f) << s
	}
	return 0, idxOverflow
}

// fixedFields is the number of leading uvarint fields of each opcode: every
// field of the event, but for an allocation's tag bytes (whose length is the
// last fixed field) and a segment's edge list (whose count is).
var fixedFields = [...]uint8{
	opAccess: 9, opAcquire: 4, opRelease: 4, opContended: 3, opAlloc: 6, opFree: 3,
	opSegment: 3, opSync: 5, opRequest: 6, opThreadStart: 2, opThreadExit: 1,
}

// parse decodes the event that starts at b[0] into *ev and returns its
// length. errShort means b ends inside the event and nothing was consumed;
// any other error means a corrupt log.
func (d *Decoder) parse(b []byte, ev *Event) (int, error) {
	op := b[0]
	if int(op) >= len(fixedFields) || fixedFields[op] == 0 {
		return 0, fmt.Errorf("tracelog: unknown opcode %d", op)
	}
	f := d.scratch[:fixedFields[op]]
	i := 1
	for k := range f {
		// Most fields are one byte; the call is for the rest.
		if uint(i) < uint(len(b)) && b[i] < 0x80 {
			f[k] = uint64(b[i])
			i++
		} else {
			f[k], i = uvarint(b, i)
		}
	}
	if i < 0 {
		return 0, idxErr(i)
	}
	ev.Op = Op(op)
	switch op {
	case opAccess:
		ev.Access = trace.Access{
			Thread: trace.ThreadID(f[0]), Seg: trace.SegmentID(f[1]),
			Block: trace.BlockID(f[2]), Addr: trace.Addr(f[3]),
			Off: uint32(f[4]), Size: uint32(f[5]),
			Kind: trace.AccessKind(f[6]), Atomic: f[7] != 0,
			Stack: trace.StackID(f[8]),
		}
	case opAcquire, opRelease:
		ev.Thread = trace.ThreadID(f[0])
		ev.Lock = trace.LockID(f[1])
		ev.LockKind = trace.LockKind(f[2])
		ev.Stack = trace.StackID(f[3])
	case opContended:
		ev.Thread = trace.ThreadID(f[0])
		ev.Lock = trace.LockID(f[1])
		ev.Stack = trace.StackID(f[2])
	case opAlloc:
		if f[5] > maxTagLen {
			return 0, fmt.Errorf("tracelog: corrupt string length %d", f[5])
		}
		if uint64(len(b)-i) < f[5] {
			return 0, errShort
		}
		// Interned straight from the window: a repeated tag costs no copy.
		tag := intern.Bytes(b[i : i+int(f[5])])
		i += int(f[5])
		id := trace.BlockID(f[0])
		blk := d.blocks[id]
		if blk == nil {
			blk = d.slab.get()
			d.blocks[id] = blk
		}
		*blk = trace.Block{
			ID: id, Base: trace.Addr(f[1]), Size: uint32(f[2]),
			Thread: trace.ThreadID(f[3]), Stack: trace.StackID(f[4]), Tag: tag,
		}
		ev.Block = *blk
	case opFree:
		id := trace.BlockID(f[0])
		if blk := d.blocks[id]; blk != nil {
			// Evict: the free event carries the value copy, so nothing needs
			// the table entry afterwards — keeping it (as earlier revisions
			// did) leaks the whole history of freed blocks over a long
			// stream. A later double free of the same ID resolves to the bare
			// ID, which is all the tools use from it (memcheck records the
			// base itself at first free, exactly as it must on the live path).
			ev.Block = *blk
			delete(d.blocks, id)
			d.slab.put(blk)
		} else {
			ev.Block = trace.Block{ID: id}
		}
		ev.Thread = trace.ThreadID(f[1])
		ev.Stack = trace.StackID(f[2])
	case opSegment:
		if f[2] > maxSegmentEdges {
			return 0, fmt.Errorf("tracelog: corrupt segment event: %d incoming edges", f[2])
		}
		n, k := int(f[2]), 0
		if d.segOff > 0 {
			i, k = d.segOff, d.segEdges
		}
		for ; k < n; k++ {
			from, j := uvarint(b, i)
			kind, j := uvarint(b, j)
			if j < 0 {
				if j == idxShort {
					d.segOff, d.segEdges = i, k
				}
				return 0, idxErr(j)
			}
			d.edges = append(d.edges, trace.SegmentEdge{From: trace.SegmentID(from), Kind: trace.EdgeKind(kind)})
			i = j
		}
		d.segOff, d.segEdges = 0, 0
		// Capacity-limited, so that nothing appended to the arena later can
		// be reached through this event's slice.
		in := d.edges[len(d.edges)-n : len(d.edges) : len(d.edges)]
		ev.Segment = trace.SegmentStart{Seg: trace.SegmentID(f[0]), Thread: trace.ThreadID(f[1]), In: in}
	case opSync:
		ev.Sync = trace.SyncEvent{
			Op: trace.SyncOp(f[0]), Obj: trace.SyncID(f[1]),
			Thread: trace.ThreadID(f[2]), Msg: int64(f[3]), Stack: trace.StackID(f[4]),
		}
	case opRequest:
		ev.Request = trace.Request{
			Kind: trace.RequestKind(f[0]), Thread: trace.ThreadID(f[1]),
			Block: trace.BlockID(f[2]), Off: uint32(f[3]), Size: uint32(f[4]),
			Stack: trace.StackID(f[5]),
		}
	case opThreadStart:
		ev.Thread = trace.ThreadID(f[0])
		ev.Parent = trace.ThreadID(f[1])
	case opThreadExit:
		ev.Thread = trace.ThreadID(f[0])
	}
	return i, nil
}

// maxEmptyReads is how many consecutive (0, nil) Reads refill tolerates
// before giving up with io.ErrNoProgress, as bufio does.
const maxEmptyReads = 100

// refill reads more input behind the undecoded tail, which it first moves
// to the front of the window; a tail that already fills the window — one
// event larger than it — doubles the window instead. It returns once at
// least one byte has arrived, and never reads twice when the first Read
// delivered: a complete event is not held back waiting for later input.
func (d *Decoder) refill() error {
	if d.rerr != nil {
		return d.rerr
	}
	if d.pos > 0 {
		d.end = copy(d.win, d.win[d.pos:d.end])
		d.pos = 0
	}
	if d.end == len(d.win) {
		// The parse bounds (maxTagLen, maxSegmentEdges) cap this growth at a
		// few megabytes, and only bytes that really arrived drive it.
		size := windowSize
		if d.win != nil {
			size = 2 * len(d.win)
		}
		w := make([]byte, size)
		copy(w, d.win)
		d.win = w
	}
	for range maxEmptyReads {
		n, err := d.r.Read(d.win[d.end:])
		d.end += n
		d.rerr = err
		if n > 0 {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return io.ErrNoProgress
}

// decode is Next without the arena reset. With block false it declines to
// read: it returns errShort when the window holds no further whole event.
func (d *Decoder) decode(ev *Event, block bool) error {
	for {
		if d.pos < d.end {
			n, err := d.parse(d.win[d.pos:d.end], ev)
			if err != errShort {
				d.pos += n
				d.events++
				return err
			}
		}
		if !block {
			// The next call starts a new arena: forget the partial edge list.
			d.edges = d.edges[:len(d.edges)-d.segEdges]
			d.segOff, d.segEdges = 0, 0
			return errShort
		}
		if err := d.refill(); err != nil {
			if d.pos < d.end {
				// Running out of input mid-event is a truncated log, not a
				// clean end, and must not look like io.EOF.
				d.events++
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
			}
			return err
		}
	}
}

// Next decodes the next event into *ev, overwriting the fields its Op uses.
// It returns io.EOF at a clean end of log; any other error means a corrupt
// or truncated log.
func (d *Decoder) Next(ev *Event) error {
	d.edges = d.edges[:0]
	return d.decode(ev, true)
}

// NextBatch decodes up to len(evs) events into evs and returns how many. The
// events' Segment.In slices share one arena that stays valid until the next
// call to NextBatch, Next, Reset or Release.
//
// A batch never spans a Read: NextBatch reads only while the batch is still
// empty, and returns what it has when the window runs out of whole events.
// Whatever a reader does inside Read — the ingest server's idle deadline and
// snapshot trigger — therefore runs between batches, with every event handed
// out so far already delivered by the caller.
//
// Like io.Reader, NextBatch may return n > 0 together with an error: the n
// events precede the corrupt or truncated one. The clean end of the log is
// (0, io.EOF).
func (d *Decoder) NextBatch(evs []Event) (int, error) {
	d.edges = d.edges[:0]
	n := 0
	for n < len(evs) {
		if err := d.decode(&evs[n], n == 0); err != nil {
			if err == errShort {
				break
			}
			return n, err
		}
		n++
	}
	return n, nil
}
