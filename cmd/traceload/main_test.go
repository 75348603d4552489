package main

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/flagdoc"
	"repro/internal/tracelog"
)

// TestRedialDelay pins the flood redial rule: the server's retry-after hint,
// bounded to a second, and 50ms when the rejection carries no hint. Every
// slot rejection carries a one-second hint, so the bound must admit it.
func TestRedialDelay(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want time.Duration
	}{
		{"hint 1s", &tracelog.BusyError{RetryAfter: time.Second}, time.Second},
		{"hint 5s", &tracelog.BusyError{RetryAfter: 5 * time.Second}, time.Second},
		{"hint 200ms", &tracelog.BusyError{RetryAfter: 200 * time.Millisecond}, 200 * time.Millisecond},
		{"wrapped hint", fmt.Errorf("ingest: response: %w", &tracelog.BusyError{RetryAfter: 300 * time.Millisecond}), 300 * time.Millisecond},
		{"no hint", &tracelog.BusyError{}, 50 * time.Millisecond},
		{"not busy", errors.New("boom"), 50 * time.Millisecond},
	} {
		if got := redialDelay(tc.err); got != tc.want {
			t.Errorf("%s: redialDelay = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestFlagsDocumented checks that every flag traceload declares is named, as
// -name, both in the package doc comment and in README.
func TestFlagsDocumented(t *testing.T) { flagdoc.Check(t) }
