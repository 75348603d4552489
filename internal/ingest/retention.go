package ingest

import (
	"slices"

	"repro/internal/serve"
	"repro/internal/tracelog"
)

// retire enforces Config.RetainSessions: while more terminal sessions than
// the bound are retained, the oldest ones are folded into the running
// aggregate and evicted from the registry. In-flight sessions are never
// touched.
func (s *Server) retire() {
	if s.cfg.RetainSessions <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var terminal []uint64
	for _, id := range s.order {
		if s.sessions[id].foldable() {
			terminal = append(terminal, id)
		}
	}
	excess := len(terminal) - s.cfg.RetainSessions
	if excess <= 0 {
		return
	}
	for _, id := range terminal[:excess] {
		s.fold(s.sessions[id])
		delete(s.sessions, id)
	}
	// The evicted IDs are the ones no longer in the registry map.
	s.order = slices.DeleteFunc(s.order, func(id uint64) bool { return s.sessions[id] == nil })
}

// fold merges one terminal session into the retention rollup. Called with
// s.mu held.
func (s *Server) fold(sess *Session) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	// Eviction removes the session from the census the state gauges
	// cover; the folds counter keeps the running total observable.
	s.met.folds.Inc()
	s.met.states[sess.state].Add(-1)
	s.folded.Add(outcomes[sess.state], sess.resultLocked())
	if sess.state != StateReported {
		return
	}
	// Merge produces a fresh collector every fold; the previous one is never
	// mutated again, so an Aggregate holding it concurrently stays sound.
	// With FoldSiteCap set, the fresh collector is compacted before it is
	// published: the retained sites are a prefix of the merged first-seen
	// order, and the discarded tail is tallied for the aggregate to
	// disclose. Compacting pre-publication keeps a concurrent Aggregate
	// sound — it only ever holds collectors that will never mutate again.
	s.folded.Merge()
	if s.cfg.FoldSiteCap > 0 {
		sites, occs := s.folded.Col.CompactTail(s.cfg.FoldSiteCap)
		s.folded.CompactedSites += sites
		s.folded.CompactedOccs += occs
		if sites > 0 {
			s.met.foldCompactedSites.Add(int64(sites))
		}
	}
}

// census computes the cheap registry rollup behind a backend-stats response:
// lifecycle counts and event totals only — no collector merge, so a router
// polling every backend costs the fleet nothing measurable.
func (s *Server) census() tracelog.BackendCensus {
	r, folded := s.tally()
	return tracelog.BackendCensus{
		Sessions: r.Sessions, Reported: r.Reported, Failed: r.Failed,
		Active: r.Active, Folded: folded, Events: r.Events,
	}
}

// tally adds every retained session to a copy of the folded rollup, unmerged.
// The folded state and the registry are read in one s.mu critical section,
// so a session the retention policy folds concurrently is counted exactly
// once.
func (s *Server) tally() (r serve.Rollup, folded int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r = s.folded
	for _, id := range s.order {
		sess := s.sessions[id]
		sess.mu.Lock()
		r.Add(outcomes[sess.state], sess.resultLocked())
		sess.mu.Unlock()
	}
	return r, s.folded.Sessions
}
