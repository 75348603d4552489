package ingest

// Wire codecs for the router↔backend tier: the structured per-session result
// a backend ships inside a backend-report frame, and the census it answers a
// backend-stats request with. Both follow the hostile-input discipline of the
// metadata and collector codecs — nothing is allocated from a claimed count
// or length without checking it against the bytes actually remaining, and a
// decoder rejects versions it does not speak instead of misparsing them.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"slices"

	"repro/internal/intern"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

const (
	// backendWireVersion tags both backend payload encodings.
	backendWireVersion = 1
	// maxBackendString bounds one encoded short string (session name, shed
	// tool name, summary key).
	maxBackendString = 1 << 16
	// maxBackendCount caps any decoded counter; beyond it the payload is
	// corrupt, not just large.
	maxBackendCount = 1 << 62
)

// BackendResult is one forwarded session's outcome, shipped backend → router
// when the session reports: the rendered report text the router relays to the
// client verbatim, plus the structured state — the portable collector and the
// tool summaries — the router folds into the fleet aggregate. Folding decoded
// results is byte-identical to folding the originals in one process, because
// the collector encoding carries the SiteKeys verbatim.
type BackendResult struct {
	Name       string
	Events     int64
	SampledOut int64    // access events the backend's sampler shed
	Shed       []string // tools the backend's degradation ladder shed
	Report     string   // rendered final report, degraded header included
	Sums       map[string]trace.ToolSummary
	Col        *report.Collector
}

// encode appends the result's wire form to b and returns the extended slice.
func (res *BackendResult) encode(b []byte) []byte {
	b = append(b, backendWireVersion)
	b = appendBackendString(b, res.Name)
	b = binary.AppendUvarint(b, uint64(res.Events))
	b = binary.AppendUvarint(b, uint64(res.SampledOut))
	b = binary.AppendUvarint(b, uint64(len(res.Shed)))
	for _, tool := range res.Shed {
		b = appendBackendString(b, tool)
	}
	b = appendBackendString(b, res.Report)
	// Summaries in sorted name/key order: the encoding of a result is a pure
	// function of its content, never of map iteration order.
	names := slices.Sorted(maps.Keys(res.Sums))
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		sum := res.Sums[name]
		b = appendBackendString(b, name)
		keys := slices.Sorted(maps.Keys(sum))
		b = binary.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			b = appendBackendString(b, k)
			b = binary.AppendUvarint(b, uint64(sum[k]))
		}
	}
	col := res.Col.AppendWire(nil)
	b = binary.AppendUvarint(b, uint64(len(col)))
	return append(b, col...)
}

// decodeBackendResult parses one encode payload.
func decodeBackendResult(payload []byte) (*BackendResult, error) {
	r := bytes.NewReader(payload)
	if err := checkBackendVersion(r); err != nil {
		return nil, err
	}
	res := &BackendResult{}
	var err error
	if res.Name, err = readBackendString(r, maxBackendString); err != nil {
		return nil, err
	}
	counts, err := readBackendCounts(r, 3)
	if err != nil {
		return nil, err
	}
	res.Events, res.SampledOut = int64(counts[0]), int64(counts[1])
	if nshed := counts[2]; nshed > 0 {
		if nshed > uint64(r.Len()) {
			return nil, fmt.Errorf("ingest: backend result claims %d shed tools in %d bytes", nshed, r.Len())
		}
		res.Shed = make([]string, nshed)
		for i := range res.Shed {
			if res.Shed[i], err = readBackendString(r, maxBackendString); err != nil {
				return nil, err
			}
		}
	}
	// The rendered report is the one big field: it shares the backend-report
	// frame's payload bound rather than the short-string bound.
	if res.Report, err = readBackendString(r, tracelog.MaxFramePayload); err != nil {
		return nil, err
	}
	nsums, err := readBackendCounts(r, 1)
	if err != nil {
		return nil, err
	}
	if nsums[0] > uint64(r.Len()) {
		return nil, fmt.Errorf("ingest: backend result claims %d summaries in %d bytes", nsums[0], r.Len())
	}
	for i := uint64(0); i < nsums[0]; i++ {
		name, err := readBackendString(r, maxBackendString)
		if err != nil {
			return nil, err
		}
		nkeys, err := readBackendCounts(r, 1)
		if err != nil {
			return nil, err
		}
		if nkeys[0] > uint64(r.Len()) {
			return nil, fmt.Errorf("ingest: backend summary claims %d keys in %d bytes", nkeys[0], r.Len())
		}
		sum := make(trace.ToolSummary, nkeys[0])
		for j := uint64(0); j < nkeys[0]; j++ {
			k, err := readBackendString(r, maxBackendString)
			if err != nil {
				return nil, err
			}
			v, err := readBackendCounts(r, 1)
			if err != nil {
				return nil, err
			}
			sum[k] = int64(v[0])
		}
		if res.Sums == nil {
			res.Sums = make(map[string]trace.ToolSummary, nsums[0])
		}
		if _, dup := res.Sums[name]; dup {
			return nil, fmt.Errorf("ingest: duplicate summary %q in backend result", name)
		}
		res.Sums[name] = sum
	}
	ncol, err := readBackendCounts(r, 1)
	if err != nil {
		return nil, err
	}
	if ncol[0] > uint64(r.Len()) {
		return nil, fmt.Errorf("ingest: backend result claims %d collector bytes, %d remain", ncol[0], r.Len())
	}
	colBytes := make([]byte, ncol[0])
	if _, err := io.ReadFull(r, colBytes); err != nil {
		return nil, fmt.Errorf("ingest: corrupt backend result: %w", io.ErrUnexpectedEOF)
	}
	if res.Col, err = report.DecodeWire(colBytes); err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("ingest: %d trailing byte(s) after backend result", r.Len())
	}
	return res, nil
}

// BackendCensus is a backend's answer to a backend-stats request: its live
// registry counts, the cheap health/occupancy view the router's "backends"
// query renders without forcing a full aggregate merge on every backend.
type BackendCensus struct {
	Sessions int // all registered sessions, including folded ones
	Reported int
	Failed   int
	Active   int
	Folded   int
	Events   int64
}

// encode appends the census wire form to b.
func (c *BackendCensus) encode(b []byte) []byte {
	b = append(b, backendWireVersion)
	for _, v := range [...]uint64{
		uint64(c.Sessions), uint64(c.Reported), uint64(c.Failed),
		uint64(c.Active), uint64(c.Folded), uint64(c.Events),
	} {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// decodeBackendCensus parses one census payload.
func decodeBackendCensus(payload []byte) (*BackendCensus, error) {
	r := bytes.NewReader(payload)
	if err := checkBackendVersion(r); err != nil {
		return nil, err
	}
	v, err := readBackendCounts(r, 6)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("ingest: %d trailing byte(s) after backend census", r.Len())
	}
	return &BackendCensus{
		Sessions: int(v[0]), Reported: int(v[1]), Failed: int(v[2]),
		Active: int(v[3]), Folded: int(v[4]), Events: int64(v[5]),
	}, nil
}

func appendBackendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func checkBackendVersion(r *bytes.Reader) error {
	ver, err := r.ReadByte()
	if err != nil {
		return fmt.Errorf("ingest: corrupt backend payload: %w", io.ErrUnexpectedEOF)
	}
	if ver != backendWireVersion {
		return fmt.Errorf("ingest: unsupported backend payload version %d", ver)
	}
	return nil
}

// readBackendCounts reads n consecutive uvarints, each bounded by
// maxBackendCount.
func readBackendCounts(r *bytes.Reader, n int) ([]uint64, error) {
	out := make([]uint64, n)
	for i := range out {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("ingest: corrupt backend payload: %w", io.ErrUnexpectedEOF)
		}
		if v > maxBackendCount {
			return nil, fmt.Errorf("ingest: implausible backend count %d", v)
		}
		out[i] = v
	}
	return out, nil
}

// readBackendString reads one length-prefixed string bounded by limit,
// interned process-wide (tool and summary names repeat across every session a
// router ever sees; the rendered report is the one string too large and too
// unique to intern, so it is returned as a fresh copy).
func readBackendString(r *bytes.Reader, limit int) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", fmt.Errorf("ingest: corrupt backend payload: %w", io.ErrUnexpectedEOF)
	}
	if n > uint64(limit) || n > uint64(r.Len()) {
		return "", fmt.Errorf("ingest: backend string length %d exceeds payload", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("ingest: corrupt backend payload: %w", io.ErrUnexpectedEOF)
	}
	if limit <= maxBackendString {
		return intern.Bytes(buf), nil
	}
	return string(buf), nil
}
