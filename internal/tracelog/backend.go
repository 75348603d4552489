package tracelog

// Payload codecs of the router↔backend frame kinds: the structured
// per-session result a backend ships in a backend-report frame, and the
// census it answers a backend-stats request with. The frame methods carry
// these as raw payloads, so a router can tell a refusal (an error frame), a
// transport failure (no frame) and a malformed result (a payload that fails
// to decode) apart.

import (
	"encoding/binary"
	"maps"
	"slices"

	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/wire"
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

// Append appends the result's wire form to b and returns the extended slice.
func (res *BackendResult) Append(b []byte) []byte {
	b = append(b, backendWireVersion)
	b = wire.AppendString(b, res.Name)
	b = binary.AppendUvarint(b, uint64(res.Events))
	b = binary.AppendUvarint(b, uint64(res.SampledOut))
	b = binary.AppendUvarint(b, uint64(len(res.Shed)))
	for _, tool := range res.Shed {
		b = wire.AppendString(b, tool)
	}
	b = wire.AppendString(b, res.Report)
	// Summaries in sorted name/key order: the encoding of a result is a pure
	// function of its content, never of map iteration order.
	names := slices.Sorted(maps.Keys(res.Sums))
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		sum := res.Sums[name]
		b = wire.AppendString(b, name)
		keys := slices.Sorted(maps.Keys(sum))
		b = binary.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			b = wire.AppendString(b, k)
			b = binary.AppendUvarint(b, uint64(sum[k]))
		}
	}
	col := res.Col.AppendWire(nil)
	b = binary.AppendUvarint(b, uint64(len(col)))
	return append(b, col...)
}

// DecodeBackendResult parses one Append payload. Names are interned; the
// rendered report, the one large and unique string, is copied instead and
// shares the backend-report frame's payload bound.
func DecodeBackendResult(payload []byte) (*BackendResult, error) {
	r := wire.NewReader(payload, "tracelog: backend result")
	r.Version(backendWireVersion)
	res := &BackendResult{
		Name:       r.String(maxBackendString),
		Events:     int64(r.Uint(maxBackendCount)),
		SampledOut: int64(r.Uint(maxBackendCount)),
	}
	if n := r.Count(maxBackendCount); n > 0 {
		res.Shed = make([]string, n)
		for i := range res.Shed {
			res.Shed[i] = r.String(maxBackendString)
		}
	}
	res.Report = r.Text(MaxFramePayload)
	if n := r.Count(maxBackendCount); n > 0 {
		res.Sums = make(map[string]trace.ToolSummary, n)
		for range n {
			name := r.String(maxBackendString)
			sum := make(trace.ToolSummary)
			for range r.Count(maxBackendCount) {
				k := r.String(maxBackendString)
				sum[k] = int64(r.Uint(maxBackendCount))
			}
			if _, dup := res.Sums[name]; dup {
				r.Failf("duplicate summary %q", name)
			}
			res.Sums[name] = sum
		}
	}
	col := r.Bytes(r.Count(maxBackendCount))
	if err := r.Done(); err != nil {
		return nil, err
	}
	var err error
	if res.Col, err = report.DecodeWire(col); err != nil {
		return nil, err
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

// Append appends the census wire form to b and returns the extended slice.
func (c *BackendCensus) Append(b []byte) []byte {
	b = append(b, backendWireVersion)
	for _, v := range [...]uint64{
		uint64(c.Sessions), uint64(c.Reported), uint64(c.Failed),
		uint64(c.Active), uint64(c.Folded), uint64(c.Events),
	} {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// DecodeBackendCensus parses one census payload.
func DecodeBackendCensus(payload []byte) (*BackendCensus, error) {
	r := wire.NewReader(payload, "tracelog: backend census")
	r.Version(backendWireVersion)
	c := &BackendCensus{
		Sessions: int(r.Uint(maxBackendCount)), Reported: int(r.Uint(maxBackendCount)),
		Failed: int(r.Uint(maxBackendCount)), Active: int(r.Uint(maxBackendCount)),
		Folded: int(r.Uint(maxBackendCount)), Events: int64(r.Uint(maxBackendCount)),
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}
