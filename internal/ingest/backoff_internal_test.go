package ingest

import (
	"strings"
	"testing"
	"time"

	"repro/internal/tracelog"
)

// TestBackoffGovernor pins the cooperative client backoff: busy rejections
// grow the governed delay (seeded by the server hint), successes decay it
// back to zero, and non-busy errors never engage it.
func TestBackoffGovernor(t *testing.T) {
	busy := func(hint time.Duration) error {
		return decodeRemote(t, tracelog.BusyMessage("full", hint))
	}
	b := NewBackoff(400 * time.Millisecond)
	if d := b.OnBusy(busy(0)); d != backoffFloor {
		t.Errorf("first hintless rejection delay = %v, want floor %v", d, backoffFloor)
	}
	if d := b.OnBusy(busy(300 * time.Millisecond)); d != 300*time.Millisecond {
		t.Errorf("hinted rejection delay = %v, want the 300ms hint", d)
	}
	if d := b.OnBusy(busy(0)); d != 400*time.Millisecond {
		t.Errorf("doubled delay = %v, want the 400ms cap", d)
	}
	for i := 0; i < 4; i++ {
		b.OnSuccess()
	}
	if d := b.Delay(); d != 0 {
		t.Errorf("delay after sustained success = %v, want 0", d)
	}
	if d := b.OnBusy(decodeRemote(t, "plain failure")); d != 0 || b.Delay() != 0 {
		t.Errorf("non-busy error engaged the governor: %v / %v", d, b.Delay())
	}
}

// decodeRemote turns an error-frame payload into the typed error a client
// would see, via a real frame exchange.
func decodeRemote(t *testing.T, msg string) error {
	t.Helper()
	var buf strings.Builder
	fw := tracelog.NewFrameWriter(&buf)
	if err := fw.Error(msg); err != nil {
		t.Fatal(err)
	}
	_, err := tracelog.NewFrameReader(strings.NewReader(buf.String())).Response()
	if err == nil {
		t.Fatal("error frame decoded as success")
	}
	return err
}
