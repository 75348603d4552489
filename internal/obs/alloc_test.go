package obs

import "testing"

// TestZeroAllocHotPaths turns the package doc's "hot-path writes allocate
// nothing" claim from prose into a pinned budget: every write reachable from
// the per-event instrumentation — counters, pre-resolved vector handles,
// gauges and histogram
// observes — must be allocation-free. CounterVec.With is deliberately
// absent: it locks and may allocate, which is why instrumented code resolves
// handles once at setup.
func TestZeroAllocHotPaths(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "events")
	vec := r.CounterVec("per_shard_total", "per shard", "shard")
	handle := vec.With("3") // resolved once, hammered below
	g := r.Gauge("queue_depth", "depth")
	gv := r.GaugeVec("queue_hwm", "hwm", "shard")
	ghandle := gv.With("3")
	h := r.Histogram("latency_ns", "latency", LatencyBuckets())

	var n int64
	cases := []struct {
		name string
		f    func()
	}{
		{"Counter.Inc", c.Inc},
		{"Counter.Add", func() { c.Add(17) }},
		{"CounterVec.handle.Inc", handle.Inc},
		{"Gauge.Set", func() { g.Set(n) }},
		{"Gauge.Add", func() { g.Add(-1) }},
		{"GaugeVec.handle.Add", func() { ghandle.Add(1) }},
		{"Histogram.Observe.first-bucket", func() { h.Observe(500) }},
		{"Histogram.Observe.inf-bucket", func() { h.Observe(1 << 40) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.f); allocs != 0 {
			t.Errorf("%s: %.2f allocs/op, want 0", tc.name, allocs)
		}
	}
}
