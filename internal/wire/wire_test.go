package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// TestReaderRoundTrip reads back every kind of field an encoder writes.
func TestReaderRoundTrip(t *testing.T) {
	b := []byte{7}
	b = binary.AppendUvarint(b, 1<<40)
	b = binary.AppendUvarint(b, 3)
	b = AppendString(b, "tool")
	b = AppendString(b, "report text")
	b = append(b, 0xAA, 0xBB)

	r := NewReader(b, "test: payload")
	r.Version(7)
	if v := r.Uint(1 << 62); v != 1<<40 {
		t.Errorf("Uint = %d", v)
	}
	if n := r.Count(10); n != 3 {
		t.Errorf("Count = %d", n)
	}
	if s := r.String(16); s != "tool" {
		t.Errorf("String = %q", s)
	}
	if s := r.String(16); s != "report text" {
		t.Errorf("String = %q", s)
	}
	if got := r.Bytes(2); string(got) != "\xAA\xBB" {
		t.Errorf("Bytes = %x", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderFailures pins every bound and the error each one reports: the
// codec's prefix, and io.ErrUnexpectedEOF for a truncation.
func TestReaderFailures(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		read    func(r *Reader)
		want    string
	}{
		{"empty byte", nil, func(r *Reader) { r.Byte() }, "truncated"},
		{"version", []byte{2}, func(r *Reader) { r.Version(1) }, "unsupported version 2"},
		{"cut uvarint", []byte{0x80}, func(r *Reader) { r.Uvarint() }, "truncated"},
		{"overflow", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}, func(r *Reader) { r.Uvarint() }, "overflows"},
		{"uint bound", []byte{9}, func(r *Reader) { r.Uint(8) }, "implausible value 9"},
		{"count bound", []byte{5, 0, 0, 0, 0, 0}, func(r *Reader) { r.Count(4) }, "count 5 exceeds the limit 4"},
		{"count past payload", []byte{3, 0}, func(r *Reader) { r.Count(100) }, "or the 1 byte(s) remaining"},
		{"string bound", []byte{3, 'a', 'b', 'c'}, func(r *Reader) { r.String(2) }, "count 3 exceeds the limit 2"},
		{"string past payload", []byte{4, 'a'}, func(r *Reader) { r.String(100) }, "count 4 exceeds the limit 100 or the 1 byte(s)"},
		{"bytes past payload", []byte{1}, func(r *Reader) { r.Bytes(2) }, "truncated"},
		{"trailing", []byte{1, 2}, func(r *Reader) { r.Byte() }, "1 trailing byte(s)"},
		{"failf", nil, func(r *Reader) { r.Failf("duplicate key %q", "k") }, `duplicate key "k"`},
	}
	for _, c := range cases {
		r := NewReader(c.payload, "test: payload")
		c.read(&r)
		err := r.Done()
		if err == nil || !strings.HasPrefix(err.Error(), "test: payload") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
		if c.want == "truncated" && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: truncation does not wrap io.ErrUnexpectedEOF: %v", c.name, err)
		}
	}
}

// TestReaderSticky pins that the first failure is the one reported and that
// every later read is a zero value consuming nothing.
func TestReaderSticky(t *testing.T) {
	r := NewReader([]byte{9, 1, 2, 3}, "test: payload")
	r.Uint(8)
	first := r.Err()
	if r.Byte() != 0 || r.Uvarint() != 0 || r.Count(100) != 0 || r.String(10) != "" || r.Bytes(1) != nil {
		t.Error("a read after a failure returned a non-zero value")
	}
	r.Failf("later")
	if err := r.Done(); err != first || r.Len() != 0 {
		t.Errorf("Done = %v, want the first failure %v", err, first)
	}
}

// TestReaderStringCopies pins that String returns a copy: the result
// outlives a reused payload, so a decoded string holds none of the
// session's buffers alive.
func TestReaderStringCopies(t *testing.T) {
	p := AppendString(nil, "shared_symbol")
	r := NewReader(p, "t")
	s := r.String(64)
	p[1] = 'X'
	if s != "shared_symbol" {
		t.Errorf("String aliases the payload: %q", s)
	}
}
