package tracelog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/intern"
	"repro/internal/report"
	"repro/internal/trace"
)

// refDecodeBackendResult and refDecodeBackendCensus are the bytes.Reader
// backend decoders the shared wire.Reader replaced, kept unchanged (error
// texts included) as the oracles of FuzzBackendDifferential. The embedded
// collector goes through report.DecodeWire, which FuzzCollectorDifferential
// checks on its own.
//
// refDecodeBackendResult parses one encode payload.
func refDecodeBackendResult(payload []byte) (*BackendResult, error) {
	r := bytes.NewReader(payload)
	if err := refCheckBackendVersion(r); err != nil {
		return nil, err
	}
	res := &BackendResult{}
	var err error
	if res.Name, err = refReadBackendString(r, maxBackendString); err != nil {
		return nil, err
	}
	counts, err := refReadBackendCounts(r, 3)
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
			if res.Shed[i], err = refReadBackendString(r, maxBackendString); err != nil {
				return nil, err
			}
		}
	}
	// The rendered report is the one big field: it shares the backend-report
	// frame's payload bound rather than the short-string bound.
	if res.Report, err = refReadBackendString(r, MaxFramePayload); err != nil {
		return nil, err
	}
	nsums, err := refReadBackendCounts(r, 1)
	if err != nil {
		return nil, err
	}
	if nsums[0] > uint64(r.Len()) {
		return nil, fmt.Errorf("ingest: backend result claims %d summaries in %d bytes", nsums[0], r.Len())
	}
	for i := uint64(0); i < nsums[0]; i++ {
		name, err := refReadBackendString(r, maxBackendString)
		if err != nil {
			return nil, err
		}
		nkeys, err := refReadBackendCounts(r, 1)
		if err != nil {
			return nil, err
		}
		if nkeys[0] > uint64(r.Len()) {
			return nil, fmt.Errorf("ingest: backend summary claims %d keys in %d bytes", nkeys[0], r.Len())
		}
		sum := make(trace.ToolSummary, nkeys[0])
		for j := uint64(0); j < nkeys[0]; j++ {
			k, err := refReadBackendString(r, maxBackendString)
			if err != nil {
				return nil, err
			}
			v, err := refReadBackendCounts(r, 1)
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
	ncol, err := refReadBackendCounts(r, 1)
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

// refDecodeBackendCensus parses one census payload.
func refDecodeBackendCensus(payload []byte) (*BackendCensus, error) {
	r := bytes.NewReader(payload)
	if err := refCheckBackendVersion(r); err != nil {
		return nil, err
	}
	v, err := refReadBackendCounts(r, 6)
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

func refCheckBackendVersion(r *bytes.Reader) error {
	ver, err := r.ReadByte()
	if err != nil {
		return fmt.Errorf("ingest: corrupt backend payload: %w", io.ErrUnexpectedEOF)
	}
	if ver != backendWireVersion {
		return fmt.Errorf("ingest: unsupported backend payload version %d", ver)
	}
	return nil
}

// refReadBackendCounts reads n consecutive uvarints, each bounded by
// maxBackendCount.
func refReadBackendCounts(r *bytes.Reader, n int) ([]uint64, error) {
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

// refReadBackendString reads one length-prefixed string bounded by limit,
// interned process-wide (tool and summary names repeat across every session a
// router ever sees; the rendered report is the one string too large and too
// unique to intern, so it is returned as a fresh copy).
func refReadBackendString(r *bytes.Reader, limit int) (string, error) {
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
