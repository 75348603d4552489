// Package wire is the one bounded reader behind every payload codec the
// daemon decodes from outside the process: stream metadata tables
// (tracelog), portable collectors (report) and the router↔backend results
// and census (tracelog). Those payloads arrive from untrusted peers, so each
// codec obeys the same hostile-input rules: nothing is allocated from a
// claimed count or length before it is checked against a bound and against
// the bytes actually remaining, versions a decoder does not speak are
// rejected rather than misparsed, and trailing bytes are corruption. The
// rules live here once, and so does the one place a future decode budget
// would count decoded bytes.
//
// The encoding is the one the codecs always used: unsigned varints
// (encoding/binary) for integers and counts, single bytes for versions and
// small enums, and uvarint-length-prefixed strings (AppendString).
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// AppendString appends s to b as a uvarint length followed by its bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Reader decodes one payload held in memory. Every read is bounds-checked
// against the bytes remaining. The first failure sticks: every later read
// returns a zero value and consumes nothing, so a decoder reads its fields
// straight through and checks Err (or Done) once. A count that fails reads
// as 0, so loops bounded by Count stop at once.
//
// Errors carry the codec's name as their prefix ("report: collector
// encoding: …"), and a truncation wraps io.ErrUnexpectedEOF.
type Reader struct {
	buf  []byte
	off  int
	what string
	err  error
}

// NewReader returns a reader over payload. what names the codec in every
// error, prefix included ("tracelog: metadata frame").
func NewReader(payload []byte, what string) Reader {
	return Reader{buf: payload, what: what}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes (0 after a failure).
func (r *Reader) Len() int {
	if r.err != nil {
		return 0
	}
	return len(r.buf) - r.off
}

// Failf records a decoder-level failure, such as an out-of-range enum or a
// duplicate key, unless an earlier failure is already recorded.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: %s", r.what, fmt.Sprintf(format, args...))
	}
}

func (r *Reader) truncated() {
	if r.err == nil {
		r.err = fmt.Errorf("%s truncated: %w", r.what, io.ErrUnexpectedEOF)
	}
}

// Bytes returns the next n bytes. The slice aliases the payload.
func (r *Reader) Bytes(n int) []byte {
	if n > r.Len() {
		r.truncated()
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Byte returns the next byte.
func (r *Reader) Byte() byte {
	if r.Len() == 0 {
		r.truncated()
		return 0
	}
	r.off++
	return r.buf[r.off-1]
}

// Version consumes the version byte and fails unless it is want.
func (r *Reader) Version(want byte) {
	if v := r.Byte(); v != want && r.err == nil {
		r.Failf("unsupported version %d", v)
	}
}

// Uvarint returns the next unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n == 0:
		r.truncated()
		return 0
	case n < 0:
		r.Failf("uvarint overflows 64 bits")
		return 0
	}
	r.off += n
	return v
}

// Uint returns the next unsigned varint, failing if it exceeds max: a value
// no honest encoder produces marks the payload corrupt, not just large.
func (r *Reader) Uint(max uint64) uint64 {
	v := r.Uvarint()
	if v > max {
		r.Failf("implausible value %d (limit %d)", v, max)
		return 0
	}
	return v
}

// Count returns the next unsigned varint as the number of items (or string
// bytes) that follow. Every item takes at least one byte, so a count beyond
// the bytes remaining is corrupt however large max is; checking both before
// the caller allocates is what keeps a hostile claim from costing memory.
func (r *Reader) Count(max uint64) int {
	n := r.Uvarint()
	if r.err == nil && (n > max || n > uint64(r.Len())) {
		r.Failf("count %d exceeds the limit %d or the %d byte(s) remaining", n, max, r.Len())
		return 0
	}
	return int(n)
}

// String returns the next length-prefixed string of at most limit bytes as
// a fresh copy: nothing decoded from a payload shares memory with the
// payload, another session or the process.
func (r *Reader) String(limit int) string {
	return string(r.Bytes(r.Count(uint64(limit))))
}

// Done fails the payload if any bytes remain unread and returns the
// reader's error.
func (r *Reader) Done() error {
	if n := r.Len(); n > 0 {
		r.Failf("%d trailing byte(s)", n)
	}
	return r.err
}
