// Package report collects, deduplicates, formats and classifies the warnings
// produced by the analysis tools. It corresponds to the log-file output and
// "Analysis" step of the paper's debugging process (§3.2, Fig. 3).
//
// Helgrind's headline metric — the numbers in Fig. 5 and Fig. 6 — is the
// count of distinct *reported locations*: warnings are deduplicated by their
// call-stack signature, not counted per dynamic occurrence. The Collector
// implements exactly that.
package report

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/trace"
)

// Kind classifies a warning. The type and its values live in internal/trace
// (shared with the tool-registry machinery); these aliases keep report the
// canonical vocabulary for everything that formats or classifies warnings.
type Kind = trace.Kind

// Warning kinds.
const (
	KindRace         = trace.KindRace
	KindDeadlock     = trace.KindDeadlock
	KindUseAfterFree = trace.KindUseAfterFree
	KindInvalidFree  = trace.KindInvalidFree
	KindHighLevel    = trace.KindHighLevel
)

// Warning is a single tool finding; see trace.Warning for the field
// contract. The warning's stack — digested to a content-derived LocKey —
// identifies the reporting site and, together with Kind and Tool, forms the
// deduplication signature (see sitekey.go).
type Warning = trace.Warning

// Suppressor decides whether a warning should be suppressed given its
// resolved stack. internal/suppress implements it.
type Suppressor interface {
	Suppressed(kind string, frames []trace.Frame) bool
}

// Collector accumulates warnings with per-site deduplication.
//
// Every site lives in sites, keyed for folding by SiteKey, and in order, the
// first-seen order that Format, Manifest, AppendWire and Merge walk without
// touching the map. A repeated warning does not reach the map either: it
// folds through its stack's slot (see stackSlot).
type Collector struct {
	res        trace.Resolver
	sup        Suppressor
	seq        func() uint64
	sites      map[SiteKey]*Warning
	order      []site
	stackIx    trace.Dense // StackID -> index into slots
	slots      []stackSlot
	suppressed int
	total      int
}

// site is one entry of a collector's first-seen order: the site's key and
// its exemplar warning, which is also the value sites holds for the key.
type site struct {
	key SiteKey
	w   *Warning
}

// numKinds is the number of warning kinds a stackSlot caches a site for.
const numKinds = int(KindHighLevel) + 1

// stackSlot is a collector's record of one stack that raised a warning: the
// stack's LocKey, frozen at its first use (see slot), and per kind the last
// site a warning at this stack opened or folded into. The cached site is
// only a shortcut past the SiteKey map: a warning folds through it when the
// site's tool equals the warning's, which with the same stack and kind means
// the same SiteKey. Every other warning takes the slow path and refills the
// slot — a collector shared by several tools, a stack whose frames equal
// another stack's, a kind outside the known range.
//
// A suppressed warning is never cached, so it costs on every occurrence what
// it always did. A cached pointer is only valid while the site is in this
// collector: Clone and CompactTail clear the cache and keep the LocKeys, and
// a Merge output starts with no slots.
//
// Slots are indexed through a trace.Dense over the StackID. A stream can
// therefore cost a collector at most what it costs any detector's Dense: an
// index window of up to denseDirectLimit (2^21) int32s, 8 MiB, reached only
// when a warning names a stack ID just below 2^21; IDs at or above it, or
// negative, take Dense's map fallback, one entry each. On top of that each
// distinct stack that raised a warning costs one 64-byte slot.
type stackSlot struct {
	stack trace.StackID
	loc   LocKey
	sites [numKinds]*Warning
}

// cache remembers s as the site of kind k at this slot's stack.
func (sl *stackSlot) cache(k Kind, s *Warning) {
	if int(k) < numKinds {
		sl.sites[k] = s
	}
}

// NewCollector creates a collector. res resolves stacks and blocks for
// formatting and suppression matching; sup may be nil.
func NewCollector(res trace.Resolver, sup Suppressor) *Collector {
	return &Collector{
		res:   res,
		sup:   sup,
		sites: make(map[SiteKey]*Warning),
	}
}

// SetSequencer installs a callback returning the current global event
// sequence number. When set, every new site is stamped with the sequence of
// its first occurrence (Warning.Seq), which is what lets Merge reconstruct
// the stream's first-seen order from per-tool collectors.
func (c *Collector) SetSequencer(fn func() uint64) { c.seq = fn }

// Add records a warning occurrence, implementing trace.Reporter. The first
// occurrence at a site retains its details; later ones only bump the count.
// Add reports whether the warning was a new site (neither folded nor
// suppressed). A folded occurrence allocates nothing: w is copied to the
// heap only when it opens a site. A repeat at a site its stack's slot
// caches costs a bounds check, an array load and a tool comparison.
func (c *Collector) Add(w Warning) bool {
	c.total++
	if i := c.stackIx.Lookup(int32(w.Stack)); i >= 0 && int(w.Kind) < numKinds {
		if s := c.slots[i].sites[w.Kind]; s != nil && s.Tool == w.Tool {
			s.Count++
			return false
		}
	}
	return c.addSlow(w)
}

// addSlow folds w by its SiteKey, or opens its site, and caches the site in
// the stack's slot; a suppressed warning opens nothing and is not cached.
func (c *Collector) addSlow(w Warning) bool {
	sl := c.slot(w.Stack)
	key := SiteKey{Tool: w.Tool, Kind: w.Kind, Loc: sl.loc}
	if prev, ok := c.sites[key]; ok {
		prev.Count++
		sl.cache(w.Kind, prev)
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
	s := new(Warning)
	*s = w
	s.Count = 1
	c.sites[key] = s
	c.order = append(c.order, site{key, s})
	sl.cache(w.Kind, s)
	return true
}

var _ trace.Reporter = (*Collector)(nil)

// Clone returns a deep, independent point-in-time copy of the collector:
// same sites, order, counts and totals, sharing no mutable state with the
// original. Warnings added to either side afterwards are invisible to the
// other. The clone carries no sequencer — it is a frozen checkpoint meant for
// formatting and merging, not for further collection on a live stream.
//
// The clone keeps every stack's frozen LocKey but none of the slots' cached
// sites: those point into the original's sites, and a fold through one would
// count on the wrong side. A later Add to the clone refills its slots.
func (c *Collector) Clone() *Collector {
	out := &Collector{
		res:        c.res,
		sup:        c.sup,
		sites:      make(map[SiteKey]*Warning, len(c.order)),
		order:      make([]site, len(c.order)),
		slots:      make([]stackSlot, len(c.slots)),
		suppressed: c.suppressed,
		total:      c.total,
	}
	slab := make([]Warning, len(c.order))
	for i, e := range c.order {
		slab[i] = *e.w
		out.sites[e.key] = &slab[i]
		out.order[i] = site{e.key, &slab[i]}
	}
	// Slots were indexed in order and none is ever evicted, so indexing
	// their stacks in the same order rebuilds the same positions.
	for i, sl := range c.slots {
		out.stackIx.Index(int32(sl.stack))
		out.slots[i] = stackSlot{stack: sl.stack, loc: sl.loc}
	}
	return out
}

// CompactTail bounds the collector to its first max sites in order,
// discarding the tail. It returns how many sites were discarded and how many
// dynamic occurrences they carried; the discarded occurrences leave the
// Occurrences total too, so a compacted collector stays internally
// consistent and the caller can disclose exactly what was dropped. The
// retained set is a prefix of the site order, so prefix-consistency
// reasoning over merged collectors carries over. A max <= 0 or >= Locations
// is a no-op.
//
// Compaction clears every slot's cached sites (keeping the frozen LocKeys):
// a slot left pointing at a discarded site would fold a later occurrence
// into it, out of the report but still in the total.
//
// This exists for the ingest retention fold: a month-long daemon folding
// every terminal session into one merged collector needs a bound on distinct
// sites, and an explicit tally of what the bound cost beats a silently
// shrinking report.
func (c *Collector) CompactTail(max int) (sites, occurrences int) {
	if max <= 0 || len(c.order) <= max {
		return 0, 0
	}
	tail := c.order[max:]
	for _, e := range tail {
		occurrences += e.w.Count
		delete(c.sites, e.key)
	}
	sites = len(tail)
	clear(tail)
	c.order = c.order[:max:max]
	c.total -= occurrences
	for i := range c.slots {
		c.slots[i].sites = [numKinds]*Warning{}
	}
	return sites, occurrences
}

// Sites returns the distinct warning sites in first-seen order.
func (c *Collector) Sites() []*Warning {
	out := make([]*Warning, len(c.order))
	for i, e := range c.order {
		out[i] = e.w
	}
	return out
}

// Locations returns the number of distinct reported locations — the Fig. 5/6
// metric.
func (c *Collector) Locations() int { return len(c.order) }

// Occurrences returns the total number of dynamic warnings observed,
// including folded duplicates but excluding suppressed sites.
func (c *Collector) Occurrences() int { return c.total - c.suppressed }

// SuppressedSites returns the number of sites dropped by suppressions.
func (c *Collector) SuppressedSites() int { return c.suppressed }

// LocationsByTool returns the number of distinct sites per tool report name
// — the per-tool breakdown of Locations for multi-tool runs.
func (c *Collector) LocationsByTool() map[string]int {
	m := make(map[string]int)
	for _, w := range c.Sites() {
		m[w.Tool]++
	}
	return m
}

// CountByKind returns the number of distinct sites per warning kind.
func (c *Collector) CountByKind() map[Kind]int {
	m := make(map[Kind]int)
	for _, e := range c.order {
		m[e.key.Kind]++
	}
	return m
}

// Keys returns the site keys in first-seen order, parallel to Sites. The
// keys are the cross-process identity of each site — equal keys from
// different sessions denote the same bug.
func (c *Collector) Keys() []SiteKey {
	out := make([]SiteKey, len(c.order))
	for i, e := range c.order {
		out[i] = e.key
	}
	return out
}

// Format renders all warning sites in a Helgrind-like textual format.
func (c *Collector) Format() string {
	return string(c.AppendFormat(nil))
}

// AppendFormat appends the Format rendering to dst and returns the extended
// buffer. Each stack is resolved and rendered once per call: a stack shared
// by many sites (a common allocation site, say) is copied from where it was
// first rendered. Each block is resolved once per call too.
func (c *Collector) AppendFormat(dst []byte) []byte {
	memo := &formatMemo{
		stacks: make(map[trace.StackID][2]int, len(c.order)),
		blocks: make(map[trace.BlockID]*trace.Block),
	}
	for _, e := range c.order {
		dst = appendWarning(dst, e.w, c.res, memo)
		dst = append(dst, '\n')
	}
	dst = append(dst, "== "...)
	dst = strconv.AppendInt(dst, int64(c.Locations()), 10)
	dst = append(dst, " distinct location(s), "...)
	dst = strconv.AppendInt(dst, int64(c.Occurrences()), 10)
	dst = append(dst, " occurrence(s), "...)
	dst = strconv.AppendInt(dst, int64(c.suppressed), 10)
	return append(dst, " suppressed site(s)\n"...)
}

// FormatWarning renders one warning in a Helgrind-like format (cf. Fig. 9 of
// the paper).
func FormatWarning(w *Warning, res trace.Resolver) string {
	return string(appendWarning(nil, w, res, nil))
}

// formatMemo holds what one AppendFormat call has already resolved: per
// stack, the byte range of dst its rendered frames occupy, and per block,
// the resolver's descriptor (nil when it resolves to none).
type formatMemo struct {
	stacks map[trace.StackID][2]int
	blocks map[trace.BlockID]*trace.Block
}

// blockInfo resolves block id once per memo; a nil memo resolves every call.
func (m *formatMemo) blockInfo(res trace.Resolver, id trace.BlockID) *trace.Block {
	if m == nil {
		return res.BlockInfo(id)
	}
	if blk, ok := m.blocks[id]; ok {
		return blk
	}
	blk := res.BlockInfo(id)
	m.blocks[id] = blk
	return blk
}

func appendWarning(dst []byte, w *Warning, res trace.Resolver, memo *formatMemo) []byte {
	switch w.Kind {
	case KindRace:
		dst = appendTool(dst, w.Tool, " Possible data race ")
		dst = append(dst, w.Access.String()...)
		dst = append(dst, " variable at 0x"...)
		dst = appendHexUpper(dst, uint64(w.Addr))
		dst = append(dst, '\n')
	case KindDeadlock:
		dst = appendTool(dst, w.Tool, " Lock order violation involving address 0x")
		dst = appendHexUpper(dst, uint64(w.Addr))
		dst = append(dst, '\n')
	case KindUseAfterFree:
		dst = appendTool(dst, w.Tool, " Invalid ")
		dst = append(dst, w.Access.String()...)
		dst = append(dst, " of size "...)
		dst = strconv.AppendUint(dst, uint64(w.Size), 10)
		dst = append(dst, " at 0x"...)
		dst = appendHexUpper(dst, uint64(w.Addr))
		dst = append(dst, " (freed block)\n"...)
	case KindInvalidFree:
		dst = appendTool(dst, w.Tool, " Invalid free at 0x")
		dst = appendHexUpper(dst, uint64(w.Addr))
		dst = append(dst, '\n')
	case KindHighLevel:
		dst = appendTool(dst, w.Tool, " High-level data race (inconsistent lock granularity)\n")
	}
	dst = appendStack(dst, w.Stack, res, memo)
	if res != nil {
		if blk := memo.blockInfo(res, w.Block); blk != nil {
			dst = appendTool(dst, w.Tool, " Address 0x")
			dst = appendHexUpper(dst, uint64(w.Addr))
			dst = append(dst, " is "...)
			dst = strconv.AppendUint(dst, uint64(w.Off), 10)
			dst = append(dst, " bytes inside a block of size "...)
			dst = strconv.AppendUint(dst, uint64(blk.Size), 10)
			dst = append(dst, " ("...)
			dst = append(dst, blk.Tag...)
			dst = append(dst, ") alloc'd by thread "...)
			dst = strconv.AppendInt(dst, int64(blk.Thread), 10)
			dst = append(dst, '\n')
			dst = appendStack(dst, blk.Stack, res, memo)
		}
	}
	if w.PrevStack != trace.NoStack {
		dst = appendTool(dst, w.Tool, " Conflicts with a previous access\n")
		dst = appendStack(dst, w.PrevStack, res, memo)
	}
	if w.State != "" {
		dst = appendTool(dst, w.Tool, " Previous state: ")
		dst = append(dst, w.State...)
		dst = append(dst, '\n')
	}
	if w.Count > 1 {
		dst = appendTool(dst, w.Tool, " (")
		dst = strconv.AppendInt(dst, int64(w.Count), 10)
		dst = append(dst, " occurrences at this site)\n"...)
	}
	return dst
}

// appendTool appends a line's "==tool==" prefix followed by text.
func appendTool(dst []byte, tool, text string) []byte {
	dst = append(dst, "=="...)
	dst = append(dst, tool...)
	dst = append(dst, "=="...)
	return append(dst, text...)
}

// appendStack appends a stack's frames, innermost first like Helgrind, each
// on its own indented line. With a memo, a stack already rendered into dst
// is copied from there rather than resolved again.
func appendStack(dst []byte, id trace.StackID, res trace.Resolver, memo *formatMemo) []byte {
	if res == nil || id == trace.NoStack {
		return dst
	}
	if memo != nil {
		if r, ok := memo.stacks[id]; ok {
			return append(dst, dst[r[0]:r[1]]...)
		}
	}
	start := len(dst)
	frames := res.Stack(id)
	for i := len(frames) - 1; i >= 0; i-- {
		f := frames[i]
		if i == len(frames)-1 {
			dst = append(dst, "   at "...)
		} else {
			dst = append(dst, "   by "...)
		}
		dst = append(dst, f.Fn...)
		dst = append(dst, " ("...)
		dst = append(dst, f.File...)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(f.Line), 10)
		dst = append(dst, ")\n"...)
	}
	if memo != nil {
		memo.stacks[id] = [2]int{start, len(dst)}
	}
	return dst
}

// appendHexUpper appends v in uppercase hexadecimal, as fmt's %X does.
func appendHexUpper(dst []byte, v uint64) []byte {
	const digits = "0123456789ABCDEF"
	var buf [16]byte
	i := len(buf)
	for {
		i--
		buf[i] = digits[v&0xF]
		v >>= 4
		if v == 0 {
			break
		}
	}
	return append(dst, buf[i:]...)
}

// Summary is a compact per-kind rollup.
func (c *Collector) Summary() string {
	counts := c.CountByKind()
	kinds := make([]Kind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s: %d", k, counts[k]))
	}
	if len(parts) == 0 {
		return "no warnings"
	}
	return strings.Join(parts, ", ")
}
