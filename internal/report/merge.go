package report

import (
	"bytes"
	"cmp"
	"slices"
	"strings"

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
//
// The output's map is sized once, to the sum of the inputs, and its order
// and exemplars start at the size of the largest input, which is exact when
// the inputs overlap, as successive folds of one aggregate do. The
// exemplars go into at most two slabs, so the allocations do not follow the
// number of sites beyond the map's own tables. The output starts with no
// stack slots: its first Add at each stack takes the slow path.
func Merge(res trace.Resolver, sup Suppressor, parts ...*Collector) *Collector {
	n, largest := 0, 0
	for _, c := range parts {
		if c != nil {
			n += len(c.order)
			largest = max(largest, len(c.order))
		}
	}
	out := &Collector{
		res:   res,
		sup:   sup,
		sites: make(map[SiteKey]*Warning, n),
		order: make([]site, 0, largest),
	}
	// A slab never grows, so no append moves an exemplar a pointer already
	// refers to. When the first fills, the second holds one exemplar per
	// input site still to come, which the rest cannot exceed.
	slab, left := make([]Warning, 0, largest), n
	for _, c := range parts {
		if c == nil {
			continue
		}
		out.total += c.total
		out.suppressed += c.suppressed
		for _, e := range c.order {
			left--
			w := e.w
			prev, ok := out.sites[e.key]
			if !ok {
				if len(slab) == cap(slab) {
					slab = make([]Warning, 0, left+1)
				}
				slab = append(slab, *w)
				cp := &slab[len(slab)-1]
				out.sites[e.key] = cp
				out.order = append(out.order, site{e.key, cp})
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
	// Keys are distinct, so (sequence, key) is a total order and any sort
	// gives the one result.
	slices.SortFunc(out.order, func(a, b site) int {
		if c := cmp.Compare(a.w.Seq, b.w.Seq); c != 0 {
			return c
		}
		if c := strings.Compare(a.key.Tool, b.key.Tool); c != 0 {
			return c
		}
		if c := cmp.Compare(a.key.Kind, b.key.Kind); c != 0 {
			return c
		}
		return bytes.Compare(a.key.Loc[:], b.key.Loc[:])
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
