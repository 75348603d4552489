package ingest

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// serveQuery answers a query connection.
func (s *Server) serveQuery(fw *tracelog.FrameWriter, q string) {
	switch {
	case q == "aggregate":
		serve.Reply(fw, "aggregate", s.Aggregate().Format())
	case q == "sessions":
		serve.Reply(fw, "sessions", s.formatSessions())
	case q == "stats":
		serve.Reply(fw, "stats", s.met.reg.Snapshot())
	case strings.HasPrefix(q, "session "), strings.HasPrefix(q, "snapshots "):
		what, name, _ := strings.Cut(q, " ")
		sess := s.SessionByName(strings.TrimSpace(name))
		if sess == nil {
			fw.Error(fmt.Sprintf("unknown session %q (never opened, or already folded into the aggregate)", strings.TrimSpace(name)))
			return
		}
		if what == "session" {
			serve.Reply(fw, what, sess.LatestReport())
		} else {
			serve.Reply(fw, what, sess.FormatSnapshots())
		}
	default:
		fw.Error(fmt.Sprintf("unknown query %q (known: aggregate, sessions, stats, session <name>, snapshots <name>)", q))
	}
}

// SessionByName returns the most recently opened retained session with the
// given name, or nil.
func (s *Server) SessionByName(name string) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.order) - 1; i >= 0; i-- {
		if sess := s.sessions[s.order[i]]; sess.Name == name {
			return sess
		}
	}
	return nil
}

// formatSessions renders the registry listing a "sessions" query receives.
// The retained sessions and the folded count are read in one s.mu critical
// section, so a session folded concurrently is listed or counted, never both.
func (s *Server) formatSessions() string {
	s.mu.Lock()
	sessions, folded := s.sessionsLocked(), s.folded.Sessions
	s.mu.Unlock()
	return formatSessionsAt(sessions, folded, time.Now())
}

// formatSessionsAt is the clock-injected rendering behind formatSessions:
// one line per retained session with its lifecycle state, progress counters
// and age at the given instant.
func formatSessionsAt(sessions []*Session, folded int, now time.Time) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== sessions: %d retained, %d folded\n", len(sessions), folded)
	for _, sess := range sessions {
		sess.mu.Lock()
		fmt.Fprintf(&b, "id=%d name=%s state=%s events=%d snaps=%d age=%s\n",
			sess.ID, sess.Name, sess.state, sess.events, len(sess.snaps),
			now.Sub(sess.Opened).Round(time.Second))
		sess.mu.Unlock()
	}
	return b.String()
}

// Sessions returns the registry entries in open order.
func (s *Server) Sessions() []*Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessionsLocked()
}

// sessionsLocked is Sessions for callers holding s.mu.
func (s *Server) sessionsLocked() []*Session {
	out := make([]*Session, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.sessions[id])
	}
	return out
}

// serveBackendStats answers a census request (backend mode only).
func (s *Server) serveBackendStats(fw *tracelog.FrameWriter) {
	c := s.census()
	if err := fw.BackendStats(c.Append(nil)); err != nil {
		fw.Error(fmt.Sprintf("backend-stats: %v", err))
	}
}

// Aggregate is the cross-session rollup: lifecycle counts, total analysed
// events, per-tool warning-site counts, summed tool summaries, and the
// merged deduplicated report of every reported session. Sessions the
// retention policy has folded stay fully accounted for — only their
// per-session state is gone.
type Aggregate struct {
	Sessions int // all registered sessions, including folded ones
	Reported int
	Failed   int
	Active   int // open/streaming/drained
	Folded   int // sessions no longer individually retained (RetainSessions)
	Events   int64
	// SampledOut sums the exact per-session sampler drops: Events +
	// SampledOut is what the streams carried; Degraded counts the sessions
	// that analysed under overload (sampled events or shed tools).
	SampledOut int64
	Degraded   int
	// CompactedSites/CompactedOccurrences disclose what the bounded
	// retention fold (Config.FoldSiteCap) has discarded from Merged.
	CompactedSites       int
	CompactedOccurrences int
	// ByTool counts distinct warning sites per tool across the merged
	// report.
	ByTool map[string]int
	// Summaries sums the per-tool counter rollups of every reported
	// session (trace.Summarizer tools, e.g. memcheck's errors and leaks).
	Summaries map[string]trace.ToolSummary
	// Merged is the deduplicated cross-session report (report.Merge):
	// identical sites from different sessions fold with summed counts.
	Merged *report.Collector
}

// Aggregate computes the cross-session rollup at this instant. Sessions
// still in flight contribute their lifecycle state only — their event
// counts and warnings arrive when the stream ends (or, with incremental
// reporting on, advance at every snapshot; see Session.Events). Folding
// (RetainSessions) is invisible here: the rollup over folded state plus the
// remaining registry equals the rollup an unretained registry would give.
func (s *Server) Aggregate() *Aggregate {
	r, folded := s.tally()
	r.Merge()
	return &Aggregate{
		Sessions:             r.Sessions,
		Reported:             r.Reported,
		Failed:               r.Failed,
		Active:               r.Active,
		Folded:               folded,
		Events:               r.Events,
		SampledOut:           r.SampledOut,
		Degraded:             r.Degraded,
		CompactedSites:       r.CompactedSites,
		CompactedOccurrences: r.CompactedOccs,
		ByTool:               r.Col.LocationsByTool(),
		Summaries:            r.Sums,
		Merged:               r.Col,
	}
}

// Format renders the aggregate in the report idiom: a header block with the
// session counts, then the rollup body (serve.FormatRollup).
func (a *Aggregate) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== ingest aggregate: %d session(s) — %d reported, %d failed, %d active; %d event(s)\n",
		a.Sessions, a.Reported, a.Failed, a.Active, a.Events)
	if a.Folded > 0 {
		fmt.Fprintf(&b, "== retention: %d session(s) folded into the aggregate\n", a.Folded)
	}
	if a.Degraded > 0 {
		fmt.Fprintf(&b, "== degraded: %d session(s) analysed under overload — %d event(s) sampled out\n",
			a.Degraded, a.SampledOut)
	}
	if a.CompactedSites > 0 {
		fmt.Fprintf(&b, "== compaction: %d warning site(s) (%d occurrence(s)) discarded beyond the fold site cap\n",
			a.CompactedSites, a.CompactedOccurrences)
	}
	return serve.FormatRollup(&b, a.ByTool, a.Summaries, a.Merged)
}
