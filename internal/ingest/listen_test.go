package ingest_test

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ingest"
)

// socketPath returns a unix socket path in a fresh short-named directory
// (socket paths are limited to about 100 bytes), removed at test end.
func socketPath(t *testing.T) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "ls")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return filepath.Join(dir, "d.sock")
}

// TestListenReplacesStaleSocket: a socket file whose listener is gone, as a
// killed daemon leaves it, does not stop a new daemon listening on the path.
func TestListenReplacesStaleSocket(t *testing.T) {
	path := socketPath(t)
	ln, err := ingest.Listen("unix:" + path)
	if err != nil {
		t.Fatal(err)
	}
	ln.(*net.UnixListener).SetUnlinkOnClose(false)
	ln.Close()
	if _, err := os.Lstat(path); err != nil {
		t.Fatalf("the closed listener's socket file is gone: %v", err)
	}
	ln, err = ingest.Listen("unix:" + path)
	if err != nil {
		t.Fatalf("listening again on a stale socket: %v", err)
	}
	defer ln.Close()
	conn, err := ingest.DialSpec("unix:" + path)
	if err != nil {
		t.Fatalf("the new listener does not accept: %v", err)
	}
	conn.Close()
}

// TestListenKeepsLiveSocket: a path a listener still serves is not taken
// over.
func TestListenKeepsLiveSocket(t *testing.T) {
	path := socketPath(t)
	ln, err := ingest.Listen("unix:" + path)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if second, err := ingest.Listen("unix:" + path); err == nil {
		second.Close()
		t.Fatal("a second listener took over a live socket")
	} else if !strings.Contains(err.Error(), "address already in use") {
		t.Fatalf("error %q, want address already in use", err)
	}
	conn, err := ingest.DialSpec("unix:" + path)
	if err != nil {
		t.Fatalf("the live listener stopped accepting: %v", err)
	}
	conn.Close()
}

// TestListenKeepsRegularFile: a path that holds a file which is not a
// socket is reported, not removed.
func TestListenKeepsRegularFile(t *testing.T) {
	path := socketPath(t)
	if err := os.WriteFile(path, []byte("not a socket"), 0o600); err != nil {
		t.Fatal(err)
	}
	if ln, err := ingest.Listen("unix:" + path); err == nil {
		ln.Close()
		t.Fatal("listened over a regular file")
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "not a socket" {
		t.Fatalf("the regular file changed: %q, %v", b, err)
	}
}
