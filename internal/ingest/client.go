package ingest

import (
	"fmt"
	"net"

	"repro/internal/tracelog"
)

// Client is one connection to a trace-ingest server: either a session (one
// streamed trace, one returned report) or a query exchange. It is the
// programmatic face of what an instrumented server process — or the
// cmd/traceload replay client — speaks over the wire.
//
// A session is either the one-call StreamTrace/StreamTraceMeta, or the
// step-wise Hello → SendMetadata/SendEvents... → Finish sequence open-loop
// producers use to pace their stream.
type Client struct {
	conn net.Conn
	fw   *tracelog.FrameWriter
	fr   *tracelog.FrameReader
}

// Dial connects to a server at a "network:address" spec (see Listen).
func Dial(spec string) (*Client, error) {
	conn, err := DialSpec(spec)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		fw:   tracelog.NewFrameWriter(conn),
		fr:   tracelog.NewFrameReader(conn),
	}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Hello opens a session under the given name.
func (c *Client) Hello(name string) error {
	if err := c.fw.Hello(name); err != nil {
		return fmt.Errorf("ingest: hello: %w", err)
	}
	return nil
}

// SendMetadata streams the interned stack/block tables (nil is a no-op), so
// the server resolves this session's warning sites like an offline replay
// would. Tables may be sent once up front or incrementally as they grow.
func (c *Client) SendMetadata(md *tracelog.Metadata) error {
	if err := c.fw.Metadata(md); err != nil {
		return fmt.Errorf("ingest: metadata: %w", err)
	}
	return nil
}

// SendEvents streams one chunk of binary trace log and flushes it to the
// wire — the flush is what makes open-loop pacing real, and what lets the
// server's backpressure (a full pipeline) block this call.
func (c *Client) SendEvents(chunk []byte) error {
	if err := c.fw.Events(chunk); err != nil {
		return fmt.Errorf("ingest: events: %w", err)
	}
	if err := c.fw.Flush(); err != nil {
		return fmt.Errorf("ingest: events: %w", err)
	}
	return nil
}

// Finish ends the stream and blocks for the server's rendered report.
func (c *Client) Finish() (string, error) {
	if err := c.fw.End(); err != nil {
		return "", fmt.Errorf("ingest: end: %w", err)
	}
	text, err := c.fr.Response()
	if err != nil {
		return "", fmt.Errorf("ingest: response: %w", err)
	}
	return text, nil
}

// StreamTrace runs one full session: hello, the trace in chunked events
// frames, end — then blocks for the server's rendered report. chunk bounds
// the frame payload size (<= 0 takes 64 KiB), exercising event batches that
// span frame boundaries exactly as a live producer would.
func (c *Client) StreamTrace(name string, log []byte, chunk int) (string, error) {
	return c.StreamTraceMeta(name, nil, log, chunk)
}

// StreamTraceMeta is StreamTrace with the session's stream metadata sent up
// front (nil metadata degrades to StreamTrace): the resolving-session shape,
// whose returned report carries stacks and block provenance.
func (c *Client) StreamTraceMeta(name string, md *tracelog.Metadata, log []byte, chunk int) (string, error) {
	if chunk <= 0 {
		chunk = 64 << 10
	}
	if err := c.Hello(name); err != nil {
		return "", err
	}
	if err := c.SendMetadata(md); err != nil {
		return "", err
	}
	for len(log) > 0 {
		n := chunk
		if n > len(log) {
			n = len(log)
		}
		if err := c.SendEvents(log[:n]); err != nil {
			return "", err
		}
		log = log[n:]
	}
	return c.Finish()
}

// Query runs one query exchange (e.g. "aggregate", "sessions", "stats",
// "session <name>", "snapshots <name>") and returns the server's rendered
// response.
func (c *Client) Query(q string) (string, error) {
	if err := c.fw.Query(q); err != nil {
		return "", fmt.Errorf("ingest: query: %w", err)
	}
	text, err := c.fr.Response()
	if err != nil {
		return "", fmt.Errorf("ingest: response: %w", err)
	}
	return text, nil
}

// Aggregate asks the server for its cross-session aggregate report.
func (c *Client) Aggregate() (string, error) {
	return c.Query("aggregate")
}

// Snapshots asks the server for the named session's incremental snapshot
// manifests (see Session.FormatSnapshots).
func (c *Client) Snapshots(name string) (string, error) {
	return c.Query("snapshots " + name)
}

// Stats asks the server for its metrics snapshot (Prometheus text format):
// the series on Config.Metrics, or on the server's own registry when that
// was nil. A router answers with its router_* series the same way.
func (c *Client) Stats() (string, error) {
	return c.Query("stats")
}
