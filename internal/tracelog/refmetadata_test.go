package tracelog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/intern"
	"repro/internal/trace"
)

// refDecodeMetadata is the bytes.Reader metadata decoder the shared
// wire.Reader replaced, kept unchanged as the oracle of
// FuzzMetadataDifferential: the same payload must be accepted or rejected
// by both, and an accepted one must decode to the same tables and the same
// sendable mark.
//
// It parses one metadata frame payload. It never allocates from
// a claimed count: counts are sanity-checked against the bytes actually
// remaining (every entry consumes at least one byte). Strings are interned
// through the process-wide table, so the symbol vocabulary shared by
// concurrent sessions from the same instrumented binary is stored once.
func refDecodeMetadata(payload []byte) (*Metadata, error) {
	r := bytes.NewReader(payload)
	readU := func() (uint64, error) {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return 0, fmt.Errorf("tracelog: corrupt metadata frame: %w", io.ErrUnexpectedEOF)
		}
		return v, nil
	}
	var sbuf []byte
	readS := func() (string, error) {
		n, err := readU()
		if err != nil {
			return "", err
		}
		if n > maxTagLen || n > uint64(r.Len()) {
			return "", fmt.Errorf("tracelog: corrupt metadata string length %d", n)
		}
		if uint64(cap(sbuf)) < n {
			sbuf = make([]byte, n)
		}
		sbuf = sbuf[:n]
		if _, err := io.ReadFull(r, sbuf); err != nil {
			return "", fmt.Errorf("tracelog: corrupt metadata frame: %w", io.ErrUnexpectedEOF)
		}
		return intern.Bytes(sbuf), nil
	}

	md := &Metadata{
		Stacks:   make(map[trace.StackID][]trace.Frame),
		Blocks:   make(map[trace.BlockID]trace.Block),
		sendable: true,
	}
	// An entry's wire size is the bytes the reader consumed for it; if any
	// entry exceeds maxMetadataEntry (possible only from a foreign encoder —
	// ours never emits one), the fragment loses its sendable mark and
	// AddMetadata re-filters it.
	entryStart := 0
	entryDone := func() {
		if entryStart-r.Len() > maxMetadataEntry {
			md.sendable = false
		}
	}
	nstacks, err := readU()
	if err != nil {
		return nil, err
	}
	if nstacks > uint64(r.Len()) {
		return nil, fmt.Errorf("tracelog: metadata claims %d stacks in %d bytes", nstacks, r.Len())
	}
	for i := uint64(0); i < nstacks; i++ {
		entryStart = r.Len()
		id, err := readU()
		if err != nil {
			return nil, err
		}
		nframes, err := readU()
		if err != nil {
			return nil, err
		}
		if nframes > maxStackFrames {
			return nil, fmt.Errorf("tracelog: metadata stack with %d frames", nframes)
		}
		frames := make([]trace.Frame, 0, min(int(nframes), 64))
		for j := uint64(0); j < nframes; j++ {
			fn, err := readS()
			if err != nil {
				return nil, err
			}
			file, err := readS()
			if err != nil {
				return nil, err
			}
			line, err := readU()
			if err != nil {
				return nil, err
			}
			frames = append(frames, trace.Frame{Fn: fn, File: file, Line: int(line)})
		}
		md.Stacks[trace.StackID(id)] = frames
		entryDone()
	}
	nblocks, err := readU()
	if err != nil {
		return nil, err
	}
	if nblocks > uint64(r.Len()) {
		return nil, fmt.Errorf("tracelog: metadata claims %d blocks in %d bytes", nblocks, r.Len())
	}
	for i := uint64(0); i < nblocks; i++ {
		entryStart = r.Len()
		f, err := refReadN(readU, 6)
		if err != nil {
			return nil, err
		}
		tag, err := readS()
		if err != nil {
			return nil, err
		}
		id := trace.BlockID(f[0])
		md.Blocks[id] = trace.Block{
			ID: id, Base: trace.Addr(f[1]), Size: uint32(f[2]),
			Thread: trace.ThreadID(f[3]), Stack: trace.StackID(f[4]),
			Freed: f[5] != 0, Tag: tag,
		}
		entryDone()
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("tracelog: %d trailing byte(s) after metadata tables", r.Len())
	}
	return md, nil
}

// refReadN collects n uvarint fields through the given read callback.
func refReadN(read func() (uint64, error), n int) ([]uint64, error) {
	out := make([]uint64, n)
	for i := range out {
		v, err := read()
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
