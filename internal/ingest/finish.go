package ingest

import (
	"sync"

	"repro/internal/tracelog"
)

// reportBufs recycles the buffers finish renders reports into, so a
// session's report is rendered straight into a buffer already its size and
// written to the connection from there.
var reportBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledReport bounds what reportBufs retains: a buffer grown past it by
// an outsized report is left to the garbage collector.
const maxPooledReport = 4 << 20

func putReportBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledReport {
		reportBufs.Put(bp)
	}
}

// finish is the last phase of a session: it closes the pipeline, renders
// the report and writes it — as a tracelog.BackendResult frame for an
// assign-opened session, as a report frame otherwise.
func (s *Server) finish(run *sessionRun, fw *tracelog.FrameWriter, assigned bool) *sessionError {
	sess := run.sess
	sess.setState(StateDrained)
	col, err := run.pipe.Close()
	if err != nil {
		return &sessionError{"analysis", err}
	}
	// Mark reported before the response write: the moment the client has
	// its report in hand, a follow-up aggregate query must already account
	// for this session (write-then-mark would race that query). A failed
	// delivery downgrades the session to failed afterwards. A degraded
	// session's report says so up front — exact counts, never silently.
	bp := reportBufs.Get().(*[]byte)
	defer putReportBuf(bp)
	text := append((*bp)[:0], degradedHeader(run.sampledOut(), run.shed)...)
	text = col.AppendFormat(text)
	*bp = text
	sess.mu.Lock()
	sess.transitionLocked(StateReported)
	sess.col = col
	sess.sums = run.pipe.Summaries()
	res := sess.resultLocked()
	sess.mu.Unlock()
	for tool, n := range col.LocationsByTool() {
		s.met.warnings.With(tool).Add(int64(n))
	}
	if assigned {
		// The router gets the structured result: the rendered text it relays
		// to the client, plus the portable collector and summaries it folds
		// into the fleet aggregate.
		res.Report = string(text)
		err = fw.BackendReport(res.Append(nil))
	} else {
		err = fw.Report(text)
	}
	if err != nil {
		// Best effort: an oversized report is refused before any bytes hit
		// the wire, so the client can still be told why.
		return &sessionError{"report", err}
	}
	return nil
}
