package obs

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	c.Add(-5) // counters never go down; negative adds are dropped
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []int64{10, 100, 1000})
	for _, v := range []int64{1, 10, 11, 99, 100, 5000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 1+10+11+99+100+5000 {
		t.Errorf("sum = %d", h.Sum())
	}
	// Cumulative buckets: <=10 holds {1,10}, <=100 additionally {11,99,100},
	// <=1000 nothing more, +Inf holds the 5000.
	want := "# HELP lat latency\n# TYPE lat histogram\n" +
		"lat_bucket{le=\"10\"} 2\n" +
		"lat_bucket{le=\"100\"} 5\n" +
		"lat_bucket{le=\"1000\"} 5\n" +
		"lat_bucket{le=\"+Inf\"} 6\n" +
		"lat_sum 5221\nlat_count 6\n"
	if got := r.Snapshot(); got != want {
		t.Errorf("snapshot:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSnapshotGolden pins the full deterministic exposition rendering:
// families sorted by name, series sorted by label value, HELP/TYPE chrome.
func TestSnapshotGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "last family").Add(3)
	sv := r.GaugeVec("sessions", "sessions by state", "state")
	sv.With("streaming").Set(2)
	sv.With("reported").Set(5)
	fv := r.CounterVec("frames_total", "frames by kind", "kind")
	fv.With("events").Add(10)
	fv.With("hello").Inc()

	want := "# HELP frames_total frames by kind\n# TYPE frames_total counter\n" +
		"frames_total{kind=\"events\"} 10\n" +
		"frames_total{kind=\"hello\"} 1\n" +
		"# HELP sessions sessions by state\n# TYPE sessions gauge\n" +
		"sessions{state=\"reported\"} 5\n" +
		"sessions{state=\"streaming\"} 2\n" +
		"# HELP zz_total last family\n# TYPE zz_total counter\n" +
		"zz_total 3\n"
	if got := r.Snapshot(); got != want {
		t.Errorf("snapshot:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// Deterministic: a second render is byte-identical.
	if r.Snapshot() != want {
		t.Error("second snapshot differs from the first")
	}

	series := r.Series()
	if series[`sessions{state="reported"}`] != 5 || series["zz_total"] != 3 {
		t.Errorf("Series() = %v", series)
	}
	if r.OneLine() != `frames_total{kind="events"}=10 frames_total{kind="hello"}=1 sessions{state="reported"}=5 sessions{state="streaming"}=2 zz_total=3` {
		t.Errorf("OneLine() = %q", r.OneLine())
	}
}

// TestRegistryIdempotent pins the get-or-create contract: same name and kind
// share state, a kind mismatch panics.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", "help")
	b := r.Counter("c", "help")
	if a != b {
		t.Error("re-registering the same counter returned a different instance")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("c", "help")
}

// TestRegistryConcurrency hammers every metric type and the snapshot path
// from many goroutines; run under -race this pins the lock-free hot paths.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "events")
	g := r.Gauge("inflight", "in flight")
	h := r.Histogram("lat_ns", "latency", LatencyBuckets())
	vec := r.CounterVec("by_tool", "per tool", "tool")

	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tool := vec.With(fmt.Sprintf("tool-%d", w%3))
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i))
				tool.Inc()
				if i%500 == 0 {
					_ = r.Snapshot() // concurrent reads must be safe
				}
			}
		}(w)
	}
	wg.Wait()

	if c.Value() != workers*iters {
		t.Errorf("counter = %d, want %d", c.Value(), workers*iters)
	}
	if h.Count() != workers*iters {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*iters)
	}
	if g.Value() != workers*iters {
		t.Errorf("gauge = %d, want %d", g.Value(), workers*iters)
	}
	var vecTotal int64
	for i := 0; i < 3; i++ {
		vecTotal += vec.With(fmt.Sprintf("tool-%d", i)).Value()
	}
	if vecTotal != workers*iters {
		t.Errorf("vec total = %d, want %d", vecTotal, workers*iters)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("up", "1 when serving").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	if got := string(buf[:n]); got != "# HELP up 1 when serving\n# TYPE up counter\nup 1\n" {
		t.Errorf("handler body:\n%s", got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type = %q", ct)
	}
}

// TestLabelEscaping pins that hostile label values cannot corrupt the
// exposition format.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("c", "h", "k").With("a\"b\\c\nd").Inc()
	want := "# HELP c h\n# TYPE c counter\n" + `c{k="a\"b\\c\nd"} 1` + "\n"
	if got := r.Snapshot(); got != want {
		t.Errorf("snapshot = %q, want %q", got, want)
	}
}
