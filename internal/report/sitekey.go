package report

// Cross-session site identity. The paper counts distinct *reported
// locations*; a location is a call stack, and a call stack is content — the
// function/file/line frames — not the session-local integer the VM happened
// to intern it under. Keying sites by content is what lets identical bugs
// observed by different processes (different sessions, different backend
// analyzers, different machines) fold into one site in a fleet-wide
// aggregate: the stack IDs differ, the frames do not.
//
// A SiteKey is (tool, kind, location digest). The digest is computed from the
// resolved frames when the collector's resolver knows the stack at the time
// the warning is recorded — live sessions stream their interned tables ahead
// of the events that reference them, so resolution at Add time matches
// resolution at report time — and falls back to the raw session-local stack
// ID otherwise. The fallback keeps sessions without metadata exactly as
// discriminating as the old (tool, kind, stack-ID) identity: two sessions
// replaying byte-identical traces still share raw IDs and still fold.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"repro/internal/trace"
)

// LocKey is the content digest of a warning site's location: a truncated
// SHA-256 over the resolved frames (or over the raw stack ID when
// unresolved). It is stable across sessions, processes and machines for the
// same resolved stack, which is the property every cross-process fold in the
// system rests on.
type LocKey [16]byte

// String renders the digest as lowercase hex — the `site=` token in
// manifests.
func (k LocKey) String() string { return hex.EncodeToString(k[:]) }

// SiteKey is the deduplication identity of a warning site: the reporting
// tool, the warning kind, and the content-derived location digest. It is a
// comparable value type, usable directly as a map key, and — unlike the
// session-local stack ID it replaced — means the same thing in every process.
type SiteKey struct {
	Tool string
	Kind Kind
	Loc  LocKey
}

// Domain separators for the two digest forms. Hashing the form tag first
// means a resolved stack can never collide with a raw fallback, whatever the
// frame contents.
const (
	locResolved = 0x01
	locRaw      = 0x02
)

// LocKeyFor computes the location digest for a stack: over the resolved
// frames when any are supplied, over the raw session-local ID otherwise. The
// canonical encoding length-prefixes every field, so distinct frame lists
// cannot collide by concatenation.
func LocKeyFor(stack trace.StackID, frames []trace.Frame) LocKey {
	h := sha256.New()
	var scratch [binary.MaxVarintLen64]byte
	writeU := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		h.Write(scratch[:n])
	}
	writeS := func(s string) {
		writeU(uint64(len(s)))
		h.Write([]byte(s))
	}
	if len(frames) == 0 {
		h.Write([]byte{locRaw})
		writeU(uint64(uint32(stack)))
	} else {
		h.Write([]byte{locResolved})
		writeU(uint64(len(frames)))
		for _, f := range frames {
			writeS(f.Fn)
			writeS(f.File)
			writeU(uint64(f.Line))
		}
	}
	var k LocKey
	sum := h.Sum(scratch[:0])
	copy(k[:], sum)
	return k
}

// slot returns the stack's record, creating it on the stack's first warning
// with the stack resolved and digested. The record serves two purposes: it
// keeps a repeated warning off the SiteKey map (no re-resolution, no
// re-hashing, no map probe; see Add), and it freezes each stack's key at its
// first use — a resolver that learns a stack mid-stream cannot split one
// site across two keys between a snapshot and the final report, which is
// what keeps snapshot manifests prefix-consistent.
func (c *Collector) slot(stack trace.StackID) *stackSlot {
	i := c.stackIx.Index(int32(stack))
	if i == len(c.slots) {
		var frames []trace.Frame
		if c.res != nil && stack != trace.NoStack {
			frames = c.res.Stack(stack)
		}
		c.slots = append(c.slots, stackSlot{stack: stack, loc: LocKeyFor(stack, frames)})
	}
	return &c.slots[i]
}
