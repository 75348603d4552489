package report

import (
	"fmt"
	"strings"
)

// The site manifest is the machine-checkable face of a report: one line per
// warning site, in merged order, carrying exactly the deduplication identity
// (tool, kind, location digest), the first-seen sequence and the folded
// occurrence count. Incremental snapshot reports are verified against final
// reports through manifests — rendered text cannot be compared directly,
// because a site's occurrence count keeps growing after the snapshot.

// Manifest renders one line per site in the collector's order:
//
//	seq=<first-seen> tool=<name> kind=<category> site=<hex digest> count=<n>
//
// The site token is the content-derived location digest (LocKey), so
// manifest identities are stable across sessions and processes: the same bug
// observed by two backends renders the same site= token on both. An empty
// collector renders as the empty string. The manifest is the exchange format
// of the ingest server's "snapshots" query and the input to
// PrefixConsistent.
func (c *Collector) Manifest() string {
	var b strings.Builder
	for _, e := range c.order {
		w := e.w
		fmt.Fprintf(&b, "seq=%d tool=%s kind=%s site=%s count=%d\n",
			w.Seq, w.Tool, w.Kind.Category(), e.key.Loc, w.Count)
	}
	return b.String()
}

// PrefixConsistent checks that a mid-stream snapshot manifest is a
// prefix-consistent subset of the final manifest of the same analysis run:
// the snapshot's site lines must equal the first len(snapshot) lines of the
// final manifest on every field except count, and each snapshot count must
// not exceed the final count. This is exactly what engine determinism
// guarantees — sites are ordered by first-seen sequence, so analysing a
// prefix of the stream yields a prefix of the site list with
// not-yet-complete counts. It returns nil on success and a description of
// the first violation otherwise.
func PrefixConsistent(snapshot, final string) error {
	snapLines := manifestLines(snapshot)
	finalLines := manifestLines(final)
	if len(snapLines) > len(finalLines) {
		return fmt.Errorf("report: snapshot has %d site(s), final only %d", len(snapLines), len(finalLines))
	}
	for i, sl := range snapLines {
		sid, scount, err := splitManifestLine(sl)
		if err != nil {
			return fmt.Errorf("report: snapshot line %d: %w", i+1, err)
		}
		fid, fcount, err := splitManifestLine(finalLines[i])
		if err != nil {
			return fmt.Errorf("report: final line %d: %w", i+1, err)
		}
		if sid != fid {
			return fmt.Errorf("report: snapshot site %d is %q, final has %q — not a prefix", i+1, sid, fid)
		}
		if scount > fcount {
			return fmt.Errorf("report: snapshot site %d (%s) counts %d occurrence(s), final only %d", i+1, sid, scount, fcount)
		}
	}
	return nil
}

func manifestLines(m string) []string {
	var out []string
	for _, l := range strings.Split(m, "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out
}

// splitManifestLine separates a manifest line into its site identity (every
// field but the trailing count) and the count.
func splitManifestLine(l string) (id string, count int, err error) {
	idx := strings.LastIndex(l, " count=")
	if idx < 0 {
		return "", 0, fmt.Errorf("malformed manifest line %q", l)
	}
	if _, err := fmt.Sscanf(l[idx+1:], "count=%d", &count); err != nil {
		return "", 0, fmt.Errorf("malformed manifest count in %q", l)
	}
	return l[:idx], count, nil
}
