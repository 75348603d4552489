package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"time"

	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// span is one timed interval at a layer boundary. Spans of one session share
// its number; Parent is the id of the enclosing span, -1 for a session root.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Session int    `json:"session"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, session int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Session: session, Start: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.t0).Nanoseconds() }

// selfTimes returns, per session, each span name's summed self time: a
// span's duration minus the part its children cover.
func selfTimes(spans []span) map[int]map[string]int64 {
	covered := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			p := spans[s.Parent]
			covered[s.Parent] += min(s.End, p.End) - max(s.Start, p.Start)
		}
	}
	out := make(map[int]map[string]int64)
	for _, s := range spans {
		m := out[s.Session]
		if m == nil {
			m = make(map[string]int64)
			out[s.Session] = m
		}
		m[s.Name] += s.End - s.Start - covered[s.ID]
	}
	return out
}

// layerOf maps a tool's report name to the module that implements it, the
// name its spans and metrics carry.
func layerOf(tool string) string {
	switch tool {
	case "helgrind":
		return "lockset"
	case "djit":
		return "vectorclock"
	case "helgrind-deadlock":
		return "deadlock"
	default:
		return tool
	}
}

// stageBatch is how many events are decoded before the tools see them: large
// enough that two clock reads per tool per batch cost nothing, small enough
// that the batch stays in cache.
const stageBatch = 4096

// staged is one input prepared for the staged session: the two halves of
// what its client puts on the wire.
type staged struct {
	in         *input
	metaWire   []byte // hello, metadata frames, end
	eventsWire []byte // hello, events frames, end
}

func stage(in *input) (*staged, error) {
	mw, err := framedSession(in, true, false)
	if err != nil {
		return nil, err
	}
	ew, err := framedSession(in, false, true)
	if err != nil {
		return nil, err
	}
	return &staged{in: in, metaWire: mw, eventsWire: ew}, nil
}

// stagedSession analyses one input the way a daemon session does, but one
// layer at a time with a span around each: deframe, metadata, construct,
// then per batch decode followed by each tool's handlers, then the
// end-of-stream passes, merge and format. Tools are independent (each owns
// its collector and sees the whole ordered stream), so feeding them batch by
// batch instead of event by event changes no output — which the caller
// checks: the returned report must equal the reference.
//
// evs is the batch buffer, stageBatch long, that decode fills and the tools
// read. The caller owns it and reuses it: the program under test has no such
// buffer, so a megabyte allocated per session would put a cost into short
// sessions that is not theirs.
func stagedSession(tr *tracer, session int, st *staged, evs []tracelog.Event) (string, error) {
	root := tr.begin("session", -1, session)
	defer tr.end(root)

	id := tr.begin("tracelog.metadata", root, session)
	mfr := tracelog.NewFrameReader(bytes.NewReader(st.metaWire))
	if _, _, err := mfr.Handshake(); err != nil {
		return "", err
	}
	if _, err := io.Copy(io.Discard, mfr); err != nil {
		return "", err
	}
	tables := mfr.Tables()
	tr.end(id)

	id = tr.begin("tracelog.deframe", root, session)
	efr := tracelog.NewFrameReader(bytes.NewReader(st.eventsWire))
	if _, _, err := efr.Handshake(); err != nil {
		return "", err
	}
	log := make([]byte, 0, len(st.in.Log))
	var buf [4096]byte // what the decoder's bufio.Reader asks the frame reader for
	for {
		n, err := efr.Read(buf[:])
		log = append(log, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", err
		}
	}
	tr.end(id)

	id = tr.begin("engine.construct", root, session)
	specs := tools()
	var cur uint64 // the sequence collectors stamp new sites with
	cols := make([]*report.Collector, len(specs))
	sinks := make([]trace.Sink, len(specs))
	for i, spec := range specs {
		cols[i] = report.NewCollector(tables, nil)
		cols[i].SetSequencer(func() uint64 { return cur })
		sinks[i] = spec.Factory(cols[i])
	}
	tr.end(id)

	dec := tracelog.NewDecoder(bytes.NewReader(log))
	var edges []trace.SegmentEdge
	type fix struct{ ev, lo, hi int }
	var fixes []fix
	var base uint64
	for done := false; !done; {
		id = tr.begin("tracelog.decode", root, session)
		n := 0
		edges, fixes = edges[:0], fixes[:0]
		for n < stageBatch {
			err := dec.Next(&evs[n])
			if err == io.EOF {
				done = true
				break
			}
			if err != nil {
				return "", err
			}
			if evs[n].Op == tracelog.OpSegment {
				// Segment.In is valid only until the next Next: copy it.
				lo := len(edges)
				edges = append(edges, evs[n].Segment.In...)
				fixes = append(fixes, fix{n, lo, len(edges)})
			}
			n++
		}
		for _, f := range fixes {
			evs[f.ev].Segment.In = edges[f.lo:f.hi]
		}
		tr.end(id)
		for i, sink := range sinks {
			id = tr.begin(layerOf(specs[i].Name)+".handle", root, session)
			for k := 0; k < n; k++ {
				cur = base + uint64(k) + 1
				evs[k].Deliver(sink)
			}
			tr.end(id)
		}
		base += uint64(n)
	}

	cur = base + 1 // end-of-stream warnings sort after every stream event
	for i, sink := range sinks {
		if f, ok := sink.(trace.Finisher); ok {
			id = tr.begin(layerOf(specs[i].Name)+".finish", root, session)
			f.Finish()
			tr.end(id)
		}
	}
	id = tr.begin("report.merge", root, session)
	merged := report.Merge(tables, nil, cols...)
	tr.end(id)
	id = tr.begin("report.format", root, session)
	text := merged.Format()
	tr.end(id)
	return text, nil
}

// traceFile is what -trace 1 leaves in the output directory.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Inputs   []string `json:"inputs"` // session n analysed Inputs[n % len(Inputs)]
	Spans    []span   `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
