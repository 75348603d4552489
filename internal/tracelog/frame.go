package tracelog

// The streaming frame layer: length-framed transport for trace logs over a
// byte stream (a socket), used by the live ingest server (internal/ingest).
//
// A framed stream is a 4-byte magic followed by frames of the form
//
//	[kind byte][uvarint payload length][payload bytes]
//
// The payload of an events frame is the ordinary binary log encoding — the
// existing offline format is exactly one frame kind, chunked at arbitrary
// boundaries (events may span frames; frames are pure transport). A clean
// stream ends with an explicit end frame, which is what lets a reader
// distinguish "the sender finished" from "the connection died mid-trace":
// running out of bytes anywhere before the end frame is io.ErrUnexpectedEOF,
// never a clean EOF and never an unbounded allocation.
//
// Client → server: hello (session name), then any interleaving of metadata
// (interned stack/block tables) and events frames, then end.
// Client → server (query connection): query, end of request.
// Server → client: report (rendered analysis report) or error, as the
// response to either a drained session or a query.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// FrameKind identifies a frame in a framed trace stream.
type FrameKind uint8

// Frame kinds.
const (
	// FrameHello opens a trace-ingest session; the payload is the client's
	// session name (informational, shows up in the server registry).
	FrameHello FrameKind = 1 + iota
	// FrameEvents carries a chunk of binary trace log (the offline format).
	FrameEvents
	// FrameEnd marks the clean end of the stream.
	FrameEnd
	// FrameReport carries a rendered analysis report (server → client).
	FrameReport
	// FrameError carries a failure description (server → client).
	FrameError
	// FrameQuery asks the server a question instead of opening a session;
	// the payload names the query (e.g. "aggregate").
	FrameQuery
	// FrameMetadata carries interned stack/block tables (see Metadata) so
	// the receiver resolves warning sites like an offline replay does. Any
	// number may appear between the hello and the end frame, interleaved
	// with events frames; each is standalone and they accumulate.
	FrameMetadata
	// FrameAssign opens a forwarded session on a backend analyzer
	// (router → backend); the payload is the session name, as in a hello.
	// A backend answers the session's end with a backend-report frame
	// instead of a rendered report, so the router can fold the result.
	FrameAssign
	// FrameBackendReport carries a structured per-session result
	// (backend → router): the session outcome plus the portable collector
	// encoding (report.AppendWire) the router folds into the fleet
	// aggregate. It shares the events/report payload bound.
	FrameBackendReport
	// FrameBackendStats is the backend census exchange: an empty request
	// (router → backend, in place of a hello) answered by a stats payload
	// (backend → router) describing the backend's live sessions and totals.
	FrameBackendStats
)

func (k FrameKind) String() string {
	switch k {
	case FrameHello:
		return "hello"
	case FrameEvents:
		return "events"
	case FrameEnd:
		return "end"
	case FrameReport:
		return "report"
	case FrameError:
		return "error"
	case FrameQuery:
		return "query"
	case FrameMetadata:
		return "metadata"
	case FrameAssign:
		return "assign"
	case FrameBackendReport:
		return "backend-report"
	case FrameBackendStats:
		return "backend-stats"
	default:
		return fmt.Sprintf("frame(%d)", uint8(k))
	}
}

// frameMagic opens every framed stream (one per direction).
var frameMagic = [4]byte{'T', 'L', 'F', '1'}

// bigFrame reports whether a kind carries bulk payloads under the large
// events bound rather than the control bound: events chunks, rendered
// reports (a whole possibly-cross-session analysis), and structured backend
// reports (which embed a session's collector encoding).
func bigFrame(kind FrameKind) bool {
	return kind == FrameEvents || kind == FrameReport || kind == FrameBackendReport
}

// Framing bounds. Like the decoder's corruption bounds, these exist so a
// corrupt or hostile length claim is rejected instead of allocated.
const (
	// MaxFramePayload bounds one events chunk and one report frame. The
	// FrameWriter splits larger events writes (and refuses larger reports);
	// the reader rejects larger claims.
	MaxFramePayload = 1 << 24
	// maxControlPayload bounds hello/query/error payloads.
	maxControlPayload = 1 << 20
)

// ErrRemote wraps a failure reported by the peer through a FrameError frame.
var ErrRemote = errors.New("tracelog: remote error")

// ErrBusy marks a server-side admission rejection: the server refused the
// session before reading any of its stream (no analysis slot, admission rate
// exceeded). A busy rejection travels as an ordinary error frame whose
// payload carries the busyPrefix convention below, so it needs no new frame
// kind and older readers still surface it as a plain ErrRemote. Match with
// errors.Is(err, ErrBusy); the retry hint, when the server sent one, is
// recoverable via RetryAfterHint.
var ErrBusy = errors.New("tracelog: server busy")

// busyPrefix is the error-frame payload convention for admission rejections:
// "busy: <reason>" optionally followed by "; retry-after=<duration>".
const busyPrefix = "busy: "

// BusyMessage renders an admission-rejection error-frame payload in the
// convention remoteError parses back: the reason under the busy prefix, plus
// the retry hint when positive.
func BusyMessage(reason string, retryAfter time.Duration) string {
	if retryAfter > 0 {
		return fmt.Sprintf("%s%s; retry-after=%s", busyPrefix, reason, retryAfter)
	}
	return busyPrefix + reason
}

// BusyError is the decoded form of a busy rejection. It matches both ErrBusy
// and ErrRemote under errors.Is, so existing "remote failure" handling keeps
// working while admission-aware clients can branch on the rejection.
type BusyError struct {
	Reason string
	// RetryAfter is the server's backoff hint; 0 when the server sent none.
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("tracelog: server busy: %s (retry after %s)", e.Reason, e.RetryAfter)
	}
	return "tracelog: server busy: " + e.Reason
}

// Is reports the sentinel identities of a busy rejection.
func (e *BusyError) Is(target error) bool { return target == ErrBusy || target == ErrRemote }

// RetryAfterHint extracts the server's backoff hint from a busy rejection.
// ok is false when err is not a busy rejection or carries no hint.
func RetryAfterHint(err error) (d time.Duration, ok bool) {
	var be *BusyError
	if errors.As(err, &be) && be.RetryAfter > 0 {
		return be.RetryAfter, true
	}
	return 0, false
}

// remoteError converts an error-frame payload into its typed error: a
// *BusyError for admission rejections, the plain ErrRemote wrap otherwise.
func remoteError(msg string) error {
	rest, isBusy := strings.CutPrefix(msg, busyPrefix)
	if !isBusy {
		return fmt.Errorf("%w: %s", ErrRemote, msg)
	}
	be := &BusyError{Reason: rest}
	if reason, hint, ok := strings.Cut(rest, "; retry-after="); ok {
		if d, err := time.ParseDuration(hint); err == nil && d > 0 {
			be.Reason, be.RetryAfter = reason, d
		}
	}
	return be
}

// FrameWriter writes one direction of a framed trace stream. The magic is
// emitted before the first frame; output is buffered, and the frames that
// end an exchange (End, Report, Error) flush implicitly.
type FrameWriter struct {
	w          *bufio.Writer
	wroteMagic bool
	err        error
	buf        []byte
}

// NewFrameWriter creates a frame writer on w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: bufio.NewWriter(w), buf: make([]byte, 0, 16)}
}

// Err returns the first write error, if any.
func (fw *FrameWriter) Err() error { return fw.err }

// Flush drains the internal buffer to the underlying writer.
func (fw *FrameWriter) Flush() error {
	if fw.err != nil {
		return fw.err
	}
	if err := fw.w.Flush(); err != nil {
		fw.err = err
	}
	return fw.err
}

func (fw *FrameWriter) frame(kind FrameKind, payload []byte) error {
	if fw.err != nil {
		return fw.err
	}
	// Enforce the reader's bounds on the writer side too: sending an
	// oversized frame would only make the peer reject it unread. Events
	// frames are pre-split by Events; reports pre-checked by Report and
	// BackendReport.
	if !bigFrame(kind) && len(payload) > maxControlPayload {
		return fmt.Errorf("tracelog: %s frame payload of %d bytes exceeds the limit %d", kind, len(payload), maxControlPayload)
	}
	if !fw.wroteMagic {
		fw.wroteMagic = true
		if _, err := fw.w.Write(frameMagic[:]); err != nil {
			fw.err = err
			return err
		}
	}
	fw.buf = append(fw.buf[:0], byte(kind))
	fw.buf = binary.AppendUvarint(fw.buf, uint64(len(payload)))
	if _, err := fw.w.Write(fw.buf); err != nil {
		fw.err = err
		return err
	}
	if _, err := fw.w.Write(payload); err != nil {
		fw.err = err
		return err
	}
	return nil
}

// frameStream writes a frame header for n payload bytes and streams the
// payload from r, for forwarding without materialising the payload
// (CopyFrame). The caller has already bounds-checked n via the reader's
// header parse. A source that runs dry before n bytes is a truncation
// (io.ErrUnexpectedEOF) and poisons the writer — a half-written frame cannot
// be recovered on a byte stream.
func (fw *FrameWriter) frameStream(kind FrameKind, n int, r io.Reader) error {
	if fw.err != nil {
		return fw.err
	}
	if !fw.wroteMagic {
		fw.wroteMagic = true
		if _, err := fw.w.Write(frameMagic[:]); err != nil {
			fw.err = err
			return err
		}
	}
	fw.buf = append(fw.buf[:0], byte(kind))
	fw.buf = binary.AppendUvarint(fw.buf, uint64(n))
	if _, err := fw.w.Write(fw.buf); err != nil {
		fw.err = err
		return err
	}
	if _, err := io.CopyN(fw.w, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		fw.err = err
		return err
	}
	return nil
}

// Hello opens a session stream under the given session name.
func (fw *FrameWriter) Hello(name string) error {
	if err := fw.frame(FrameHello, []byte(name)); err != nil {
		return err
	}
	return fw.Flush()
}

// Query opens a query exchange (no session) for the named question.
func (fw *FrameWriter) Query(q string) error {
	if err := fw.frame(FrameQuery, []byte(q)); err != nil {
		return err
	}
	return fw.Flush()
}

// Events writes a chunk of binary trace log, splitting it into frames of at
// most MaxFramePayload bytes.
func (fw *FrameWriter) Events(p []byte) error {
	for len(p) > MaxFramePayload {
		if err := fw.frame(FrameEvents, p[:MaxFramePayload]); err != nil {
			return err
		}
		p = p[MaxFramePayload:]
	}
	return fw.frame(FrameEvents, p)
}

// Metadata writes the interned stack/block tables and flushes, splitting
// large tables across several metadata frames (each standalone; the receiver
// accumulates them). A nil or empty Metadata writes nothing, so callers
// without tables need no special case.
func (fw *FrameWriter) Metadata(md *Metadata) error {
	if md.Empty() {
		return nil
	}
	for _, chunk := range encodeMetadataChunks(md) {
		if err := fw.frame(FrameMetadata, chunk); err != nil {
			return err
		}
	}
	return fw.Flush()
}

// Assign opens a forwarded session stream on a backend analyzer under the
// given session name (router → backend).
func (fw *FrameWriter) Assign(name string) error {
	if err := fw.frame(FrameAssign, []byte(name)); err != nil {
		return err
	}
	return fw.Flush()
}

// BackendReport sends a structured per-session result (backend → router) and
// flushes. Like Report, an oversized payload is refused here, where the
// caller can still answer with an error frame.
func (fw *FrameWriter) BackendReport(payload []byte) error {
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("tracelog: backend report of %d bytes exceeds the frame limit %d", len(payload), MaxFramePayload)
	}
	if err := fw.frame(FrameBackendReport, payload); err != nil {
		return err
	}
	return fw.Flush()
}

// BackendStats sends one side of the backend census exchange and flushes: an
// empty payload as the request (router → backend, in place of a hello), the
// encoded census as the response (backend → router).
func (fw *FrameWriter) BackendStats(payload []byte) error {
	if err := fw.frame(FrameBackendStats, payload); err != nil {
		return err
	}
	return fw.Flush()
}

// End marks the clean end of the stream and flushes.
func (fw *FrameWriter) End() error {
	if err := fw.frame(FrameEnd, nil); err != nil {
		return err
	}
	return fw.Flush()
}

// Report sends a rendered analysis report and flushes. The text is written
// from the caller's buffer without a copy; the caller may reuse it once
// Report returns. A report beyond MaxFramePayload is refused here, where the
// caller can still answer with an error frame — sending it would make the
// peer reject the frame unread.
func (fw *FrameWriter) Report(text []byte) error {
	if len(text) > MaxFramePayload {
		return fmt.Errorf("tracelog: report of %d bytes exceeds the frame limit %d", len(text), MaxFramePayload)
	}
	if err := fw.frame(FrameReport, text); err != nil {
		return err
	}
	return fw.Flush()
}

// Error sends a failure description and flushes.
func (fw *FrameWriter) Error(msg string) error {
	if err := fw.frame(FrameError, []byte(msg)); err != nil {
		return err
	}
	return fw.Flush()
}

// FrameReader reads one direction of a framed trace stream. After Handshake,
// it doubles as the io.Reader over the concatenated events payloads — feed it
// to NewDecoder (or Replay) to consume the embedded event stream: a clean
// io.EOF is returned only after an end frame, while a transport EOF anywhere
// else (mid-header, mid-payload, before the end frame) is io.ErrUnexpectedEOF.
// Payloads are streamed through, so a hostile length claim never allocates.
type FrameReader struct {
	br        *bufio.Reader
	readMagic bool
	remaining int  // unread bytes of the current events frame
	ended     bool // end frame seen
	err       error
	tables    *TableResolver // accumulated metadata-frame tables
	observe   func(kind FrameKind, payloadBytes int)
}

// SetObserver installs a callback invoked once per frame header read (after
// its length claim passed the bounds check), with the frame kind and its
// payload size. The ingest server points it at its per-kind frame and byte
// counters. Install before Handshake to observe the hello/query frame too;
// the callback must be cheap and must not retain references.
func (fr *FrameReader) SetObserver(fn func(kind FrameKind, payloadBytes int)) {
	fr.observe = fn
}

// NewFrameReader creates a frame reader on r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReader(r)}
}

// Err returns the reader's sticky error: the first read-side failure
// (truncation, bounds violation, a peer's error frame). A forwarding pump
// (CopyFrame) uses it to tell an inbound truncation from an outbound write
// failure — the two sides of a relay fail for different parties.
func (fr *FrameReader) Err() error { return fr.err }

// Tables returns the resolver accumulating the stream's metadata frames. It
// starts empty (resolving nothing — indistinguishable from a stream without
// metadata) and fills in as Read passes metadata frames; it is safe to hand
// to a report pipeline before any frame has arrived.
func (fr *FrameReader) Tables() *TableResolver {
	if fr.tables == nil {
		fr.tables = NewTableResolver()
	}
	return fr.tables
}

// checkMagic consumes and validates the stream magic once.
func (fr *FrameReader) checkMagic() error {
	if fr.readMagic {
		return nil
	}
	var got [4]byte
	if _, err := io.ReadFull(fr.br, got[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if got != frameMagic {
		return fmt.Errorf("tracelog: bad stream magic %q", got[:])
	}
	fr.readMagic = true
	return nil
}

// header reads the next frame header. A transport EOF before a complete
// header is io.ErrUnexpectedEOF: a framed stream always announces its end
// with an end frame.
func (fr *FrameReader) header() (FrameKind, int, error) {
	if err := fr.checkMagic(); err != nil {
		return 0, 0, err
	}
	k, err := fr.br.ReadByte()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, err
	}
	n, err := binary.ReadUvarint(fr.br)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, err
	}
	kind := FrameKind(k)
	limit := uint64(maxControlPayload)
	if bigFrame(kind) {
		limit = MaxFramePayload
	}
	if n > limit {
		return 0, 0, fmt.Errorf("tracelog: %s frame claims %d payload bytes (limit %d)", kind, n, limit)
	}
	if fr.observe != nil {
		fr.observe(kind, int(n))
	}
	return kind, int(n), nil
}

// control reads a bounded control payload as a string.
func (fr *FrameReader) control(n int) (string, error) {
	buf := make([]byte, n)
	if _, err := io.ReadFull(fr.br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return "", err
	}
	return string(buf), nil
}

// Handshake reads the stream opening: the magic plus the first frame, which
// must be a hello (session), a query, an assign (forwarded session), or a
// backend-stats request. It returns the kind and the payload; whether a
// given opener is acceptable on this connection is the server's policy
// decision, not the frame layer's.
func (fr *FrameReader) Handshake() (FrameKind, string, error) {
	kind, n, err := fr.header()
	if err != nil {
		return 0, "", err
	}
	switch kind {
	case FrameHello, FrameQuery, FrameAssign, FrameBackendStats:
		meta, err := fr.control(n)
		return kind, meta, err
	default:
		return 0, "", fmt.Errorf("tracelog: stream opens with %s frame, want hello, query, assign or backend-stats", kind)
	}
}

// Read implements io.Reader over the events payloads, between the handshake
// and the end frame. It returns io.EOF only after an end frame; any transport
// truncation surfaces as io.ErrUnexpectedEOF, and a peer's error frame as
// ErrRemote.
func (fr *FrameReader) Read(p []byte) (int, error) {
	if fr.err != nil {
		return 0, fr.err
	}
	for fr.remaining == 0 {
		if fr.ended {
			return 0, io.EOF
		}
		kind, n, err := fr.header()
		if err != nil {
			fr.err = err
			return 0, err
		}
		switch kind {
		case FrameEvents:
			fr.remaining = n
		case FrameMetadata:
			buf := make([]byte, n)
			if _, err := io.ReadFull(fr.br, buf); err != nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				fr.err = err
				return 0, err
			}
			// Decoded through the process-wide payload cache: identical table
			// dumps from concurrent sessions of one instrumented binary share
			// a single decoded fragment (see payloadCache).
			md, err := decodeMetadataShared(buf)
			if err != nil {
				fr.err = err
				return 0, err
			}
			fr.Tables().AddMetadata(md)
		case FrameEnd:
			fr.ended = true
			if n != 0 {
				fr.err = fmt.Errorf("tracelog: end frame with %d payload bytes", n)
				return 0, fr.err
			}
		case FrameError:
			msg, err := fr.control(n)
			if err != nil {
				fr.err = err
			} else {
				fr.err = remoteError(msg)
			}
			return 0, fr.err
		default:
			fr.err = fmt.Errorf("tracelog: unexpected %s frame inside event stream", kind)
			return 0, fr.err
		}
	}
	if len(p) > fr.remaining {
		p = p[:fr.remaining]
	}
	n, err := fr.br.Read(p)
	fr.remaining -= n
	if err == io.EOF {
		if fr.remaining > 0 {
			// Transport ended with payload still owed: truncation.
			err = io.ErrUnexpectedEOF
		} else {
			// Payload complete; the next Read parses the following header
			// (and reports the truncation if the stream ended there).
			err = nil
		}
	}
	if err != nil {
		fr.err = err
	}
	return n, err
}

// Response reads a server response frame: a report (returned as text) or an
// error frame (returned as an ErrRemote-wrapped error).
func (fr *FrameReader) Response() (string, error) {
	kind, n, err := fr.header()
	if err != nil {
		return "", err
	}
	payload, err := fr.control(n)
	if err != nil {
		return "", err
	}
	switch kind {
	case FrameReport:
		return payload, nil
	case FrameError:
		return "", remoteError(payload)
	default:
		return "", fmt.Errorf("tracelog: unexpected %s frame, want report or error", kind)
	}
}

// binaryResponse reads one response frame that must be of the wanted kind
// (returning its raw payload) or an error frame (returning its typed error).
func (fr *FrameReader) binaryResponse(want FrameKind) ([]byte, error) {
	kind, n, err := fr.header()
	if err != nil {
		return nil, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(fr.br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	switch kind {
	case want:
		return payload, nil
	case FrameError:
		return nil, remoteError(string(payload))
	default:
		return nil, fmt.Errorf("tracelog: unexpected %s frame, want %s or error", kind, want)
	}
}

// BackendResponse reads a backend's answer to a forwarded session: the
// structured backend-report payload, or the backend's error frame as a typed
// error.
func (fr *FrameReader) BackendResponse() ([]byte, error) {
	return fr.binaryResponse(FrameBackendReport)
}

// BackendStatsResponse reads a backend's census payload, or its error frame
// as a typed error.
func (fr *FrameReader) BackendStatsResponse() ([]byte, error) {
	return fr.binaryResponse(FrameBackendStats)
}

// CopyFrame forwards the next frame from fr to fw verbatim — header and
// payload, without decoding or buffering the whole payload — and returns the
// forwarded kind. This is the router's pump: after reading a client's
// handshake it streams every subsequent frame (metadata, events, end) to the
// assigned backend unchanged, so the backend decodes exactly the bytes the
// client sent. The payload is streamed through a bounded stack buffer, so a
// 16 MB events frame costs no allocation proportional to its size; the
// length claim is bounds-checked by the reader's header parse before any
// copying. CopyFrame does not flush — callers flush per frame (to preserve
// the client's pacing) or at their own cadence.
func CopyFrame(fw *FrameWriter, fr *FrameReader) (FrameKind, error) {
	if fr.err != nil {
		return 0, fr.err
	}
	if fr.remaining != 0 {
		return 0, errors.New("tracelog: CopyFrame mid-payload")
	}
	kind, n, err := fr.header()
	if err != nil {
		fr.err = err
		return 0, err
	}
	if err := fw.frameStream(kind, n, fr.br); err != nil {
		// A short source read is the inbound stream's truncation, not the
		// outbound writer's fault; account it on the reader.
		if errors.Is(err, io.ErrUnexpectedEOF) {
			fr.err = err
		}
		return kind, err
	}
	if kind == FrameEnd {
		fr.ended = true
	}
	return kind, nil
}

var _ io.Reader = (*FrameReader)(nil)

// EncodeFramed wraps an ordinary binary trace log into a framed session
// stream (hello + events + end) — what a minimal ingest client sends.
func EncodeFramed(name string, log []byte) ([]byte, error) {
	return EncodeFramedMeta(name, nil, log)
}

// EncodeFramedMeta wraps a binary trace log and its stream metadata into a
// framed session stream: hello, the metadata frames (when md carries any
// tables), the events, end — what a resolving ingest client sends.
func EncodeFramedMeta(name string, md *Metadata, log []byte) ([]byte, error) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.Hello(name); err != nil {
		return nil, err
	}
	if err := fw.Metadata(md); err != nil {
		return nil, err
	}
	if err := fw.Events(log); err != nil {
		return nil, err
	}
	if err := fw.End(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
