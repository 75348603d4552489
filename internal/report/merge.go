package report

import (
	"bytes"
	"sort"

	"repro/internal/trace"
)

// Merge combines several collectors into one, deterministically. It exists
// for the analysis engine (internal/engine) — each tool accumulates warnings
// into its own collector and Merge reassembles one report in stream order —
// and for every cross-session fold above it: the ingest retention fold, the
// per-server aggregate, and the router's fleet aggregate all reduce to Merge
// over collectors from different sessions or processes.
//
// Sites are folded by SiteKey — the content-derived (tool, kind, location)
// identity — so equal keys fold whether they came from two collectors of one
// stream or two sessions on two backend processes: the occurrence counts are
// summed and the details of the earliest first occurrence win, with a
// content tie-break (exemplarBefore) when first occurrences carry equal
// sequence numbers, as cross-session ones always do. The tie-break makes
// Merge commutative and associative: any grouping or ordering of the same
// inputs — one big merge, or progressive merges on different routers with
// different backend assignments — yields byte-identical output.
//
// Ordering is by Warning.Seq — the global event sequence stamped by
// SetSequencer — so when the inputs were stamped from one totally-ordered
// event stream, the merged first-seen order is the stream's. Inputs without
// a sequencer (Seq 0 everywhere) still merge deterministically, ordered by
// (tool, kind, location digest).
//
// The totals are additive: Merge assumes every dynamic warning occurrence
// was observed by exactly one input.
func Merge(res trace.Resolver, sup Suppressor, parts ...*Collector) *Collector {
	out := NewCollector(res, sup)
	for _, c := range parts {
		if c == nil {
			continue
		}
		out.total += c.total
		out.suppressed += c.suppressed
		for _, k := range c.order {
			w := c.sites[k]
			prev, ok := out.sites[k]
			if !ok {
				cp := *w
				out.sites[k] = &cp
				out.order = append(out.order, k)
				continue
			}
			prev.Count += w.Count
			if w.Seq < prev.Seq || (w.Seq == prev.Seq && exemplarBefore(w, prev)) {
				// The other input saw this site first (or ties on sequence
				// and wins the content tie-break): keep its details, but
				// preserve the summed count.
				cp := *w
				cp.Count = prev.Count
				*prev = cp
			}
		}
	}
	sort.SliceStable(out.order, func(i, j int) bool {
		a, b := out.order[i], out.order[j]
		wa, wb := out.sites[a], out.sites[b]
		if wa.Seq != wb.Seq {
			return wa.Seq < wb.Seq
		}
		if a.Tool != b.Tool {
			return a.Tool < b.Tool
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return bytes.Compare(a.Loc[:], b.Loc[:]) < 0
	})
	return out
}

// exemplarBefore is an arbitrary but total content order over two warnings
// at the same site with equal first-seen sequence numbers, used to pick a
// deterministic exemplar. Cross-session merges hit this constantly (every
// session restarts its sequence), and without a deterministic winner the
// exemplar would depend on merge input order — which backend a session
// happened to land on. Count is excluded: it is an accumulator, not content.
func exemplarBefore(a, b *Warning) bool {
	if a.Thread != b.Thread {
		return a.Thread < b.Thread
	}
	if a.Addr != b.Addr {
		return a.Addr < b.Addr
	}
	if a.Block != b.Block {
		return a.Block < b.Block
	}
	if a.Off != b.Off {
		return a.Off < b.Off
	}
	if a.Size != b.Size {
		return a.Size < b.Size
	}
	if a.Access != b.Access {
		return a.Access < b.Access
	}
	if a.Stack != b.Stack {
		return a.Stack < b.Stack
	}
	if a.PrevStack != b.PrevStack {
		return a.PrevStack < b.PrevStack
	}
	return a.State < b.State
}
