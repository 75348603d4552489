package report

import (
	"bytes"
	"cmp"
	"slices"
	"strings"

	"repro/internal/trace"
)

// refCollector is the collector layout the per-stack slots and the ordered
// site pointers replaced: sites found through a map[SiteKey]*Warning on
// every occurrence, the order kept as bare keys, and each stack's LocKey
// memoised in a map. Its Add, locKey, Clone, CompactTail and Merge are kept
// unchanged as the oracle of FuzzCollectorFold.
type refCollector struct {
	res        trace.Resolver
	sup        Suppressor
	seq        func() uint64
	sites      map[SiteKey]*Warning
	order      []SiteKey
	locs       map[trace.StackID]LocKey
	suppressed int
	total      int
}

func newRefCollector(res trace.Resolver, sup Suppressor) *refCollector {
	return &refCollector{
		res:   res,
		sup:   sup,
		sites: make(map[SiteKey]*Warning),
	}
}

// collector renders the reference state in the production layout, with no
// stack slots, so both sides are compared through the same accessors.
func (c *refCollector) collector() *Collector {
	out := NewCollector(c.res, c.sup)
	out.suppressed, out.total = c.suppressed, c.total
	for _, k := range c.order {
		out.sites[k] = c.sites[k]
		out.order = append(out.order, site{k, c.sites[k]})
	}
	return out
}

func (c *refCollector) Add(w Warning) bool {
	c.total++
	key := SiteKey{Tool: w.Tool, Kind: w.Kind, Loc: c.locKey(w.Stack)}
	if prev, ok := c.sites[key]; ok {
		prev.Count++
		return false
	}
	if c.seq != nil {
		w.Seq = c.seq()
	}
	if c.sup != nil && c.res != nil {
		if c.sup.Suppressed(w.Kind.Category(), c.res.Stack(w.Stack)) {
			c.suppressed++
			return false
		}
	}
	site := new(Warning)
	*site = w
	site.Count = 1
	c.sites[key] = site
	c.order = append(c.order, key)
	return true
}

func (c *refCollector) locKey(stack trace.StackID) LocKey {
	if k, ok := c.locs[stack]; ok {
		return k
	}
	var frames []trace.Frame
	if c.res != nil && stack != trace.NoStack {
		frames = c.res.Stack(stack)
	}
	k := LocKeyFor(stack, frames)
	if c.locs == nil {
		c.locs = make(map[trace.StackID]LocKey)
	}
	c.locs[stack] = k
	return k
}

func (c *refCollector) Clone() *refCollector {
	out := &refCollector{
		res:        c.res,
		sup:        c.sup,
		sites:      make(map[SiteKey]*Warning, len(c.sites)),
		order:      append([]SiteKey(nil), c.order...),
		suppressed: c.suppressed,
		total:      c.total,
	}
	for k, w := range c.sites {
		cp := *w
		out.sites[k] = &cp
	}
	if len(c.locs) > 0 {
		out.locs = make(map[trace.StackID]LocKey, len(c.locs))
		for id, lk := range c.locs {
			out.locs[id] = lk
		}
	}
	return out
}

func (c *refCollector) CompactTail(max int) (sites, occurrences int) {
	if max <= 0 || len(c.order) <= max {
		return 0, 0
	}
	tail := c.order[max:]
	for _, k := range tail {
		occurrences += c.sites[k].Count
		delete(c.sites, k)
	}
	sites = len(tail)
	c.order = c.order[:max:max]
	c.total -= occurrences
	return sites, occurrences
}

func refMerge(res trace.Resolver, sup Suppressor, parts ...*refCollector) *refCollector {
	out := newRefCollector(res, sup)
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
	// Sort (sequence, key) pairs, not the keys alone: a comparison then
	// reads no map. The sort is stable, so the order is the same as sorting
	// the keys with the sequences looked up.
	type entry struct {
		seq uint64
		key SiteKey
	}
	ents := make([]entry, len(out.order))
	for i, k := range out.order {
		ents[i] = entry{out.sites[k].Seq, k}
	}
	slices.SortStableFunc(ents, func(a, b entry) int {
		if c := cmp.Compare(a.seq, b.seq); c != 0 {
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
	for i, e := range ents {
		out.order[i] = e.key
	}
	return out
}
