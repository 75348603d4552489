package tracelog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/trace"
)

// refDecoder is the byte-at-a-time decoder the slice-native Decoder
// replaced: a bufio.Reader, binary.ReadUvarint per field, a plain block map.
// It is kept, with its buffer recycling stripped, as the oracle of the
// differential tests: the same bytes must give the same events, the same
// error class and the same Events() through both.
type refDecoder struct {
	br     *bufio.Reader
	blocks map[trace.BlockID]trace.Block
	events int64
}

func newRefDecoder(r io.Reader) *refDecoder {
	return &refDecoder{br: bufio.NewReader(r), blocks: make(map[trace.BlockID]trace.Block)}
}

func (d *refDecoder) Events() int64 { return d.events }

func (d *refDecoder) readFields(n int) ([]uint64, error) {
	out := make([]uint64, n)
	for i := range out {
		v, err := binary.ReadUvarint(d.br)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (d *refDecoder) readTag() (string, error) {
	n, err := binary.ReadUvarint(d.br)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return "", err
	}
	if n > maxTagLen {
		return "", fmt.Errorf("tracelog: corrupt string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return "", err
	}
	return string(buf), nil
}

// Next decodes the next event into *ev; see Decoder.Next for the contract.
func (d *refDecoder) Next(ev *Event) error {
	op, err := d.br.ReadByte()
	if err != nil {
		return err
	}
	d.events++
	switch op {
	case opAccess:
		f, err := d.readFields(9)
		if err != nil {
			return err
		}
		ev.Op = OpAccess
		ev.Access = trace.Access{
			Thread: trace.ThreadID(f[0]), Seg: trace.SegmentID(f[1]),
			Block: trace.BlockID(f[2]), Addr: trace.Addr(f[3]),
			Off: uint32(f[4]), Size: uint32(f[5]),
			Kind: trace.AccessKind(f[6]), Atomic: f[7] != 0,
			Stack: trace.StackID(f[8]),
		}
	case opAcquire, opRelease:
		f, err := d.readFields(4)
		if err != nil {
			return err
		}
		ev.Op = Op(op)
		ev.Thread = trace.ThreadID(f[0])
		ev.Lock = trace.LockID(f[1])
		ev.LockKind = trace.LockKind(f[2])
		ev.Stack = trace.StackID(f[3])
	case opContended:
		f, err := d.readFields(3)
		if err != nil {
			return err
		}
		ev.Op = OpContended
		ev.Thread = trace.ThreadID(f[0])
		ev.Lock = trace.LockID(f[1])
		ev.Stack = trace.StackID(f[2])
	case opAlloc:
		f, err := d.readFields(5)
		if err != nil {
			return err
		}
		tag, err := d.readTag()
		if err != nil {
			return err
		}
		blk := trace.Block{
			ID: trace.BlockID(f[0]), Base: trace.Addr(f[1]), Size: uint32(f[2]),
			Thread: trace.ThreadID(f[3]), Stack: trace.StackID(f[4]), Tag: tag,
		}
		d.blocks[blk.ID] = blk
		ev.Op = OpAlloc
		ev.Block = blk
	case opFree:
		f, err := d.readFields(3)
		if err != nil {
			return err
		}
		id := trace.BlockID(f[0])
		ev.Op = OpFree
		if blk, ok := d.blocks[id]; ok {
			ev.Block = blk
			delete(d.blocks, id)
		} else {
			ev.Block = trace.Block{ID: id}
		}
		ev.Thread = trace.ThreadID(f[1])
		ev.Stack = trace.StackID(f[2])
	case opSegment:
		f, err := d.readFields(3)
		if err != nil {
			return err
		}
		if f[2] > maxSegmentEdges {
			return fmt.Errorf("tracelog: corrupt segment event: %d incoming edges", f[2])
		}
		var edges []trace.SegmentEdge
		for i := 0; i < int(f[2]); i++ {
			ef, err := d.readFields(2)
			if err != nil {
				return err
			}
			edges = append(edges, trace.SegmentEdge{From: trace.SegmentID(ef[0]), Kind: trace.EdgeKind(ef[1])})
		}
		ev.Op = OpSegment
		ev.Segment = trace.SegmentStart{Seg: trace.SegmentID(f[0]), Thread: trace.ThreadID(f[1]), In: edges}
	case opSync:
		f, err := d.readFields(5)
		if err != nil {
			return err
		}
		ev.Op = OpSync
		ev.Sync = trace.SyncEvent{
			Op: trace.SyncOp(f[0]), Obj: trace.SyncID(f[1]),
			Thread: trace.ThreadID(f[2]), Msg: int64(f[3]), Stack: trace.StackID(f[4]),
		}
	case opRequest:
		f, err := d.readFields(6)
		if err != nil {
			return err
		}
		ev.Op = OpRequest
		ev.Request = trace.Request{
			Kind: trace.RequestKind(f[0]), Thread: trace.ThreadID(f[1]),
			Block: trace.BlockID(f[2]), Off: uint32(f[3]), Size: uint32(f[4]),
			Stack: trace.StackID(f[5]),
		}
	case opThreadStart:
		f, err := d.readFields(2)
		if err != nil {
			return err
		}
		ev.Op = OpThreadStart
		ev.Thread = trace.ThreadID(f[0])
		ev.Parent = trace.ThreadID(f[1])
	case opThreadExit:
		f, err := d.readFields(1)
		if err != nil {
			return err
		}
		ev.Op = OpThreadExit
		ev.Thread = trace.ThreadID(f[0])
	default:
		return fmt.Errorf("tracelog: unknown opcode %d", op)
	}
	return nil
}
