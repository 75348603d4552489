package report

// Wire codec for collectors. A backend analyzer finishes a session and ships
// the session's collector — site keys, exemplar warnings, totals — to the
// router inside one backend-report frame; the router decodes it and folds it
// into the fleet aggregate with Merge. The encoding carries the SiteKeys
// verbatim, so a site's cross-process identity survives the hop bit-for-bit:
// folding decoded collectors on the router is byte-identical to folding the
// originals in one process.
//
// The decoder reads through wire.Reader, the hostile-input rules shared with
// the metadata and backend codecs. Every string it returns is a fresh copy
// owned by the decoded collector.

import (
	"encoding/binary"
	"math"

	"repro/internal/trace"
	"repro/internal/wire"
)

const (
	// wireVersion tags the collector encoding; a decoder rejects versions it
	// does not speak instead of misparsing them.
	wireVersion = 1
	// maxWireString bounds one encoded string (tool name or shadow-state
	// description).
	maxWireString = 1 << 16
)

// AppendWire appends the collector's portable encoding to b and returns the
// extended slice. Only merge-relevant state travels: site keys with their
// exemplar warnings in first-seen order, plus the occurrence totals. The
// resolver, suppressor and sequencer are session-local machinery and stay
// behind; raw stack IDs inside the exemplars are carried for honesty (they
// still render as opaque IDs) but the fold identity is the SiteKey alone.
func (c *Collector) AppendWire(b []byte) []byte {
	b = append(b, wireVersion)
	b = binary.AppendUvarint(b, uint64(c.total))
	b = binary.AppendUvarint(b, uint64(c.suppressed))
	b = binary.AppendUvarint(b, uint64(len(c.order)))
	for _, e := range c.order {
		k, w := e.key, e.w
		b = wire.AppendString(b, k.Tool)
		b = append(b, byte(k.Kind))
		b = append(b, k.Loc[:]...)
		b = binary.AppendUvarint(b, uint64(uint32(w.Thread)))
		b = binary.AppendUvarint(b, uint64(w.Addr))
		b = binary.AppendUvarint(b, uint64(uint32(w.Block)))
		b = binary.AppendUvarint(b, uint64(w.Off))
		b = binary.AppendUvarint(b, uint64(w.Size))
		b = append(b, byte(w.Access))
		b = binary.AppendUvarint(b, uint64(uint32(w.Stack)))
		b = binary.AppendUvarint(b, uint64(uint32(w.PrevStack)))
		b = wire.AppendString(b, w.State)
		b = binary.AppendUvarint(b, uint64(w.Count))
		b = binary.AppendUvarint(b, w.Seq)
	}
	return b
}

// DecodeWire parses one AppendWire encoding into a fresh collector with no
// resolver or suppressor — the shape every cross-session fold already
// renders with. The decoded collector merges (and manifests) exactly like
// the original.
func DecodeWire(payload []byte) (*Collector, error) {
	r := wire.NewReader(payload, "report: collector encoding")
	r.Version(wireVersion)
	total, suppressed := r.Uint(1<<62), r.Uvarint()
	if suppressed > total {
		r.Failf("implausible totals %d/%d", suppressed, total)
	}
	out := NewCollector(nil, nil)
	out.total = int(total)
	out.suppressed = int(suppressed)
	for range r.Count(math.MaxUint64) {
		var k SiteKey
		k.Tool = r.String(maxWireString)
		if k.Kind = Kind(r.Byte()); k.Kind > KindHighLevel {
			r.Failf("unknown warning kind %d", k.Kind)
		}
		copy(k.Loc[:], r.Bytes(len(k.Loc)))
		// Fields in wire order: Go evaluates the calls left to right.
		w := &Warning{
			Tool:      k.Tool,
			Kind:      k.Kind,
			Thread:    trace.ThreadID(int32(uint32(r.Uvarint()))),
			Addr:      trace.Addr(r.Uvarint()),
			Block:     trace.BlockID(int32(uint32(r.Uvarint()))),
			Off:       uint32(r.Uvarint()),
			Size:      uint32(r.Uvarint()),
			Access:    trace.AccessKind(r.Byte()),
			Stack:     trace.StackID(int32(uint32(r.Uvarint()))),
			PrevStack: trace.StackID(int32(uint32(r.Uvarint()))),
			State:     r.String(maxWireString),
			Count:     int(r.Uint(1 << 62)),
			Seq:       r.Uvarint(),
		}
		if w.Access > trace.Write {
			r.Failf("unknown access kind %d", w.Access)
		}
		if _, dup := out.sites[k]; dup {
			r.Failf("duplicate site key")
		}
		out.sites[k] = w
		out.order = append(out.order, site{k, w})
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}
