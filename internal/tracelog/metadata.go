package tracelog

// Stream metadata: the interned stack and block tables that let a receiver
// resolve warning sites the way an in-process run resolves them against the
// VM. The binary event log deliberately carries only interned IDs (that is
// what keeps recording cheap), which meant live ingest sessions rendered
// reports without call stacks. A metadata frame closes that gap: the client
// dumps its tables into the stream — once up front, or incrementally as its
// tables grow — and the server accumulates them into a TableResolver, so
// live reports resolve stacks and blocks exactly like an offline replay with
// the recording VM in hand.

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"
	"sync"

	"repro/internal/trace"
	"repro/internal/wire"
)

// Metadata decoding bounds, in the spirit of the decoder's corruption bounds:
// no allocation from a hostile claimed count or length.
const (
	// maxStackFrames bounds one interned stack's frame count. Guest stacks
	// are a handful of frames deep; the VM caps them far below this.
	maxStackFrames = 1 << 12
	// metadataChunk is the soft payload target the writer packs entries into
	// before starting the next metadata frame; it stays well under the
	// reader's control-payload bound.
	metadataChunk = 256 << 10
	// maxMetadataEntry is the hard bound on one encoded table entry: an
	// entry must fit a single metadata frame (control-payload limit, minus
	// room for the chunk's two table counts). The encoder drops larger
	// entries — the receiver simply cannot resolve that one ID, which beats
	// failing the whole session over a pathological tag or frame string.
	maxMetadataEntry = maxControlPayload - 16
)

// Metadata carries interned stack and block tables for one trace stream.
// Every table entry is self-contained, so a stream may carry any number of
// metadata frames, each holding any subset of the tables; the receiver
// accumulates them (later entries for the same ID overwrite earlier ones).
type Metadata struct {
	// Stacks maps an interned stack ID to its frames, innermost last — the
	// same shape trace.Resolver.Stack returns.
	Stacks map[trace.StackID][]trace.Frame
	// Blocks maps a block ID to its allocation descriptor (tag, size,
	// allocating thread and stack), the data trace.Resolver.BlockInfo serves.
	Blocks map[trace.BlockID]trace.Block

	// sendable records that every entry is known to fit a metadata frame
	// (≤ maxMetadataEntry). The decoder sets it from measured wire sizes;
	// for hand-built Metadata it stays false and TableResolver.AddMetadata
	// verifies by encoding.
	sendable bool
}

// Empty reports whether the metadata carries no entries at all.
func (md *Metadata) Empty() bool {
	return md == nil || (len(md.Stacks) == 0 && len(md.Blocks) == 0)
}

// encodeStackEntry and encodeBlockEntry are the per-entry encodings. They
// are shared between the chunk writer and TableResolver.AddMetadata so that
// "which entries are sendable" (maxMetadataEntry) is decided identically on
// both sides: an entry the wire would drop is also dropped from a resolver
// built directly from the same Metadata, keeping offline reference reports
// byte-identical to live ones.
func encodeStackEntry(id trace.StackID, frames []trace.Frame) []byte {
	e := binary.AppendUvarint(nil, uint64(id))
	e = binary.AppendUvarint(e, uint64(len(frames)))
	for _, f := range frames {
		e = wire.AppendString(e, f.Fn)
		e = wire.AppendString(e, f.File)
		e = binary.AppendUvarint(e, uint64(f.Line))
	}
	return e
}

func encodeBlockEntry(id trace.BlockID, blk trace.Block) []byte {
	e := binary.AppendUvarint(nil, uint64(id))
	e = binary.AppendUvarint(e, uint64(blk.Base))
	e = binary.AppendUvarint(e, uint64(blk.Size))
	e = binary.AppendUvarint(e, uint64(blk.Thread))
	e = binary.AppendUvarint(e, uint64(blk.Stack))
	e = binary.AppendUvarint(e, b2u(blk.Freed))
	return wire.AppendString(e, blk.Tag)
}

// encodeMetadataChunks serialises the tables into one or more standalone
// frame payloads of roughly metadataChunk bytes each. Entries are emitted in
// sorted ID order, so the encoding is deterministic.
func encodeMetadataChunks(md *Metadata) [][]byte {
	stackIDs := make([]trace.StackID, 0, len(md.Stacks))
	for id := range md.Stacks {
		stackIDs = append(stackIDs, id)
	}
	sort.Slice(stackIDs, func(i, j int) bool { return stackIDs[i] < stackIDs[j] })
	blockIDs := make([]trace.BlockID, 0, len(md.Blocks))
	for id := range md.Blocks {
		blockIDs = append(blockIDs, id)
	}
	sort.Slice(blockIDs, func(i, j int) bool { return blockIDs[i] < blockIDs[j] })

	var chunks [][]byte
	var stacks, blocks [][]byte // encoded entries for the current chunk
	size := 0
	flush := func() {
		if len(stacks) == 0 && len(blocks) == 0 {
			return
		}
		payload := binary.AppendUvarint(nil, uint64(len(stacks)))
		for _, e := range stacks {
			payload = append(payload, e...)
		}
		payload = binary.AppendUvarint(payload, uint64(len(blocks)))
		for _, e := range blocks {
			payload = append(payload, e...)
		}
		chunks = append(chunks, payload)
		stacks, blocks, size = nil, nil, 0
	}
	add := func(entry []byte, block bool) {
		if len(entry) > maxMetadataEntry {
			return // unsendable entry; see maxMetadataEntry
		}
		// Flush before appending, so a chunk never grows past the soft
		// target by more than one entry and a single large (but legal)
		// entry travels in its own frame, under the frame layer's bound.
		if size > 0 && size+len(entry) > metadataChunk {
			flush()
		}
		if block {
			blocks = append(blocks, entry)
		} else {
			stacks = append(stacks, entry)
		}
		size += len(entry)
	}

	for _, id := range stackIDs {
		add(encodeStackEntry(id, md.Stacks[id]), false)
	}
	for _, id := range blockIDs {
		add(encodeBlockEntry(id, md.Blocks[id]), true)
	}
	flush()
	return chunks
}

// decodeMetadata parses one metadata frame payload. It never allocates from
// a claimed count (see wire.Reader). Strings are interned through the
// process-wide table, so the symbol vocabulary shared by concurrent sessions
// from the same instrumented binary is stored once.
func decodeMetadata(payload []byte) (*Metadata, error) {
	r := wire.NewReader(payload, "tracelog: metadata frame")
	md := &Metadata{
		Stacks:   make(map[trace.StackID][]trace.Frame),
		Blocks:   make(map[trace.BlockID]trace.Block),
		sendable: true,
	}
	// An entry's wire size is the bytes the reader consumed for it; if any
	// entry exceeds maxMetadataEntry (possible only from a foreign encoder —
	// ours never emits one), the fragment loses its sendable mark and
	// AddMetadata re-filters it.
	entryDone := func(start int) {
		if start-r.Len() > maxMetadataEntry {
			md.sendable = false
		}
	}
	for range r.Count(math.MaxUint64) {
		start := r.Len()
		id := trace.StackID(r.Uvarint())
		nframes := r.Count(maxStackFrames)
		frames := make([]trace.Frame, 0, min(nframes, 64))
		for range nframes {
			frames = append(frames, trace.Frame{
				Fn: r.String(maxTagLen), File: r.String(maxTagLen), Line: int(r.Uvarint()),
			})
		}
		md.Stacks[id] = frames
		entryDone(start)
	}
	for range r.Count(math.MaxUint64) {
		start := r.Len()
		id := trace.BlockID(r.Uvarint())
		md.Blocks[id] = trace.Block{
			ID: id, Base: trace.Addr(r.Uvarint()), Size: uint32(r.Uvarint()),
			Thread: trace.ThreadID(r.Uvarint()), Stack: trace.StackID(r.Uvarint()),
			Freed: r.Uvarint() != 0, Tag: r.String(maxTagLen),
		}
		entryDone(start)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return md, nil
}

// payloadCache dedupes decoded metadata payloads process-wide, keyed by
// content hash. N sessions streaming from the same instrumented binary send
// byte-identical table dumps; each payload is decoded once and every
// session's TableResolver shares the one immutable fragment instead of
// holding its own copy of the tables. Like the intern table it is
// deliberately append-only: distinct payloads are bounded by the distinct
// binaries (and table-growth increments) seen, not by session count or
// event volume. Failed decodes are never cached — a corrupt payload is
// re-reported per stream.
var payloadCache = struct {
	mu sync.Mutex
	m  map[[sha256.Size]byte]*Metadata
}{m: make(map[[sha256.Size]byte]*Metadata)}

// decodeMetadataShared is decodeMetadata behind the process-wide payload
// cache. The returned Metadata is shared across sessions and must be treated
// as immutable.
func decodeMetadataShared(payload []byte) (*Metadata, error) {
	key := sha256.Sum256(payload)
	payloadCache.mu.Lock()
	md, ok := payloadCache.m[key]
	payloadCache.mu.Unlock()
	if ok {
		return md, nil
	}
	md, err := decodeMetadata(payload)
	if err != nil {
		return nil, err
	}
	payloadCache.mu.Lock()
	if prev, ok := payloadCache.m[key]; ok {
		md = prev // lost a decode race; share the winner
	} else {
		payloadCache.m[key] = md
	}
	payloadCache.mu.Unlock()
	return md, nil
}

// TableResolver is a trace.Resolver backed by tables received in metadata
// frames — the receiving side's stand-in for the VM a live client has in
// hand. It starts empty (resolving nothing, exactly like a nil resolver)
// and accumulates every metadata frame the stream carries.
//
// It does not copy tables: each AddMetadata retains the Metadata fragment
// itself, and lookups walk the fragments newest-first so a later fragment's
// entry overrides an earlier one's. Combined with the process-wide payload
// cache, N concurrent sessions from one instrumented binary resolve against
// a single shared table copy instead of each re-building its own under its
// own lock. The flip side is a contract: a Metadata passed to AddMetadata
// must not be mutated afterwards.
//
// It is safe for concurrent use: the connection goroutine merges tables
// while report formatting resolves against them.
type TableResolver struct {
	mu    sync.RWMutex
	frags []*Metadata // shared, immutable; only sendable entries
}

// NewTableResolver creates an empty resolver.
func NewTableResolver() *TableResolver {
	return &TableResolver{}
}

// AddMetadata merges the tables of one metadata payload; later entries for
// the same ID overwrite earlier ones. The fragment is retained, not copied:
// md must not be mutated after the call. Entries too large for any metadata
// frame are skipped, mirroring the wire encoder exactly — a resolver built
// directly from captured Metadata holds the same tables a peer receives
// through frames.
func (r *TableResolver) AddMetadata(md *Metadata) {
	if md.Empty() {
		return
	}
	frag := sendableFragment(md)
	if frag.Empty() {
		return
	}
	r.mu.Lock()
	r.frags = append(r.frags, frag)
	r.mu.Unlock()
}

// sendableFragment returns md itself when every entry fits a metadata frame
// (always true for wire-decoded fragments, which carry the decoder's
// sendable mark), else a filtered copy without the unsendable entries. Only
// the copy path allocates, and only for hand-built tables holding an entry
// the wire could not deliver anyway.
func sendableFragment(md *Metadata) *Metadata {
	if md.sendable {
		return md
	}
	oversized := false
	for id, frames := range md.Stacks {
		if len(encodeStackEntry(id, frames)) > maxMetadataEntry {
			oversized = true
			break
		}
	}
	if !oversized {
		for id, blk := range md.Blocks {
			if len(encodeBlockEntry(id, blk)) > maxMetadataEntry {
				oversized = true
				break
			}
		}
	}
	if !oversized {
		return md
	}
	cp := &Metadata{
		Stacks:   make(map[trace.StackID][]trace.Frame, len(md.Stacks)),
		Blocks:   make(map[trace.BlockID]trace.Block, len(md.Blocks)),
		sendable: true,
	}
	for id, frames := range md.Stacks {
		if len(encodeStackEntry(id, frames)) <= maxMetadataEntry {
			cp.Stacks[id] = frames
		}
	}
	for id, blk := range md.Blocks {
		if len(encodeBlockEntry(id, blk)) <= maxMetadataEntry {
			cp.Blocks[id] = blk
		}
	}
	return cp
}

// Stack implements trace.Resolver.
func (r *TableResolver) Stack(id trace.StackID) []trace.Frame {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i := len(r.frags) - 1; i >= 0; i-- {
		if frames, ok := r.frags[i].Stacks[id]; ok {
			return frames
		}
	}
	return nil
}

// BlockInfo implements trace.Resolver. The returned descriptor is the
// caller's to keep: it is copied out of the shared fragment.
func (r *TableResolver) BlockInfo(id trace.BlockID) *trace.Block {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i := len(r.frags) - 1; i >= 0; i-- {
		if blk, ok := r.frags[i].Blocks[id]; ok {
			cp := blk
			return &cp
		}
	}
	return nil
}

// Counts returns the number of resolvable stacks and blocks — the size of
// the ID union across fragments, so repeated deliveries of one table do not
// inflate it.
func (r *TableResolver) Counts() (stacks, blocks int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ss := make(map[trace.StackID]struct{})
	bs := make(map[trace.BlockID]struct{})
	for _, f := range r.frags {
		for id := range f.Stacks {
			ss[id] = struct{}{}
		}
		for id := range f.Blocks {
			bs[id] = struct{}{}
		}
	}
	return len(ss), len(bs)
}

var _ trace.Resolver = (*TableResolver)(nil)
