package report

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/trace"
)

// refDecodeWire is the bytes.Reader collector decoder the shared
// wire.Reader replaced, kept unchanged (out-of-range kinds already
// rejected) as the oracle of FuzzCollectorDifferential.
//
// It parses one AppendWire encoding into a fresh collector with no
// resolver or suppressor — the shape every cross-session fold already
// renders with. The decoded collector merges (and manifests) exactly like
// the original.
func refDecodeWire(payload []byte) (*Collector, error) {
	r := bytes.NewReader(payload)
	readU := func() (uint64, error) {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return 0, fmt.Errorf("report: corrupt collector encoding: %w", io.ErrUnexpectedEOF)
		}
		return v, nil
	}
	var sbuf []byte
	readS := func() (string, error) {
		n, err := readU()
		if err != nil {
			return "", err
		}
		if n > maxWireString || n > uint64(r.Len()) {
			return "", fmt.Errorf("report: corrupt collector string length %d", n)
		}
		if uint64(cap(sbuf)) < n {
			sbuf = make([]byte, n)
		}
		sbuf = sbuf[:n]
		if _, err := io.ReadFull(r, sbuf); err != nil {
			return "", fmt.Errorf("report: corrupt collector encoding: %w", io.ErrUnexpectedEOF)
		}
		return string(sbuf), nil
	}
	readByte := func() (byte, error) {
		v, err := r.ReadByte()
		if err != nil {
			return 0, fmt.Errorf("report: corrupt collector encoding: %w", io.ErrUnexpectedEOF)
		}
		return v, nil
	}

	ver, err := readByte()
	if err != nil {
		return nil, err
	}
	if ver != wireVersion {
		return nil, fmt.Errorf("report: unsupported collector encoding version %d", ver)
	}
	total, err := readU()
	if err != nil {
		return nil, err
	}
	suppressed, err := readU()
	if err != nil {
		return nil, err
	}
	if total > 1<<62 || suppressed > total {
		return nil, fmt.Errorf("report: implausible collector totals %d/%d", suppressed, total)
	}
	nsites, err := readU()
	if err != nil {
		return nil, err
	}
	// Every encoded site consumes well over one byte; a count exceeding the
	// remaining payload is corrupt, not just large.
	if nsites > uint64(r.Len()) {
		return nil, fmt.Errorf("report: collector claims %d sites in %d bytes", nsites, r.Len())
	}

	out := NewCollector(nil, nil)
	out.total = int(total)
	out.suppressed = int(suppressed)
	for i := uint64(0); i < nsites; i++ {
		var k SiteKey
		if k.Tool, err = readS(); err != nil {
			return nil, err
		}
		kind, err := readByte()
		if err != nil {
			return nil, err
		}
		if kind > byte(KindHighLevel) {
			return nil, fmt.Errorf("report: unknown warning kind %d in collector encoding", kind)
		}
		k.Kind = Kind(kind)
		if _, err := io.ReadFull(r, k.Loc[:]); err != nil {
			return nil, fmt.Errorf("report: corrupt collector encoding: %w", io.ErrUnexpectedEOF)
		}
		f, err := refReadN(readU, 5)
		if err != nil {
			return nil, err
		}
		access, err := readByte()
		if err != nil {
			return nil, err
		}
		if access > byte(trace.Write) {
			return nil, fmt.Errorf("report: unknown access kind %d in collector encoding", access)
		}
		g, err := refReadN(readU, 2)
		if err != nil {
			return nil, err
		}
		state, err := readS()
		if err != nil {
			return nil, err
		}
		h, err := refReadN(readU, 2)
		if err != nil {
			return nil, err
		}
		if h[0] > 1<<62 {
			return nil, fmt.Errorf("report: implausible site count %d", h[0])
		}
		if _, dup := out.sites[k]; dup {
			return nil, fmt.Errorf("report: duplicate site key in collector encoding")
		}
		w := &Warning{
			Tool:      k.Tool,
			Kind:      k.Kind,
			Thread:    trace.ThreadID(int32(uint32(f[0]))),
			Addr:      trace.Addr(f[1]),
			Block:     trace.BlockID(int32(uint32(f[2]))),
			Off:       uint32(f[3]),
			Size:      uint32(f[4]),
			Access:    trace.AccessKind(access),
			Stack:     trace.StackID(int32(uint32(g[0]))),
			PrevStack: trace.StackID(int32(uint32(g[1]))),
			State:     state,
			Count:     int(h[0]),
			Seq:       h[1],
		}
		out.sites[k] = w
		out.order = append(out.order, k)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("report: %d trailing byte(s) after collector encoding", r.Len())
	}
	return out, nil
}

// readN reads n consecutive uvarints.
func refReadN(readU func() (uint64, error), n int) ([]uint64, error) {
	out := make([]uint64, n)
	for i := range out {
		v, err := readU()
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
