// Package obs is the daemon's self-observability layer: a zero-dependency,
// allocation-free metrics subsystem for the analysis server's own hot paths.
//
// The paper's analyzer watches production servers; at fleet scale the
// analyzer itself is a production server, and its admission waits, queue
// depths and warning rates have to be visible before overload survival or
// multi-process scale-out can be engineered (see ROADMAP). HBTM (PAPERS.md)
// makes the same argument for lightweight always-on runtime telemetry.
//
// Design constraints, in order:
//
//   - Hot-path writes are a single atomic add (Counter.Add, Gauge.Set,
//     Histogram.Observe) with no allocation, no lock, no map lookup:
//     instrumented code resolves its *Counter/*Gauge/*Histogram pointers
//     once, at construction, and hammers them afterwards. Labelled lookups
//     (CounterVec.With) take a lock and belong at setup or per-session
//     frequency, never per event.
//   - Reading is deterministic: Snapshot renders the registry in Prometheus
//     text exposition format with families sorted by name and series sorted
//     by label value, so two snapshots of equal state are byte-identical and
//     snapshots are diffable and testable against goldens.
//   - Instrumentation must be able to disappear: everything that accepts
//     metrics accepts nil, and the analysis output (reports) never depends on
//     whether metrics are attached — the ingest conformance suite pins
//     byte-identical reports with metrics on and off.
//
// All values are int64: event counts, byte counts, and durations in
// nanoseconds. Histograms are fixed-bucket with caller-chosen upper bounds
// (LatencyBuckets for ns latencies), cumulative in the Prometheus style.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Counters only grow; negative n is a programming error and is
// ignored rather than corrupting the series.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an int64 metric that can go up and down. The zero value is ready
// to use; all methods are safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram over int64 observations
// (typically nanoseconds). Buckets are defined by ascending upper bounds; an
// implicit +Inf bucket catches everything beyond the last bound. Observe is
// a bounded linear scan plus three atomic adds — no allocation, no lock.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; counts[i] = observations <= bounds[i]
	sum    atomic.Int64
	count  atomic.Int64
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// LatencyBuckets returns the default upper bounds for nanosecond latency
// histograms: 1µs to 10s, roughly half-decade steps. Returned fresh per call
// so callers can't corrupt a shared slice.
func LatencyBuckets() []int64 {
	return []int64{
		1_000,          // 1µs
		10_000,         // 10µs
		100_000,        // 100µs
		1_000_000,      // 1ms
		5_000_000,      // 5ms
		25_000_000,     // 25ms
		100_000_000,    // 100ms
		500_000_000,    // 500ms
		2_500_000_000,  // 2.5s
		10_000_000_000, // 10s
	}
}

// metric kind strings, doubling as the Prometheus TYPE annotation.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one named metric family: all series (label values) of one name.
type family struct {
	name     string
	help     string
	kind     string
	labelKey string // "" for a single unlabelled series

	mu     sync.Mutex
	series map[string]any // label value ("" when unlabelled) -> *Counter|*Gauge|*Histogram
	bounds []int64        // histogram families only
}

// get returns the series for one label value, creating it on first use.
func (f *family) get(labelValue string) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[labelValue]; ok {
		return m
	}
	var m any
	switch f.kind {
	case kindCounter:
		m = new(Counter)
	case kindGauge:
		m = new(Gauge)
	case kindHistogram:
		h := &Histogram{bounds: f.bounds}
		h.counts = make([]atomic.Int64, len(f.bounds)+1)
		m = h
	}
	f.series[labelValue] = m
	return m
}

// CounterVec is a family of counters keyed by one label value.
type CounterVec struct{ f *family }

// With returns the counter for the given label value, creating it on first
// use. It takes a lock — resolve once and keep the pointer on hot paths.
func (v *CounterVec) With(value string) *Counter { return v.f.get(value).(*Counter) }

// GaugeVec is a family of gauges keyed by one label value.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label value, creating it on first
// use. It takes a lock — resolve once and keep the pointer on hot paths.
func (v *GaugeVec) With(value string) *Gauge { return v.f.get(value).(*Gauge) }

// Registry holds named metric families and renders them deterministically.
// Registration is get-or-create: registering a name twice with the same kind
// returns the same family (so several pipelines can share one registry),
// while re-registering a name as a different kind panics — that is a
// programming error, not a runtime condition.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// register returns the named family, creating it with the given shape on
// first use and validating the shape afterwards.
func (r *Registry) register(name, help, kind, labelKey string, bounds []int64) *family {
	if name == "" {
		panic("obs: metric with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || f.labelKey != labelKey {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s/%q, was %s/%q",
				name, kind, labelKey, f.kind, f.labelKey))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind, labelKey: labelKey,
		series: make(map[string]any),
		bounds: append([]int64(nil), bounds...),
	}
	r.fams[name] = f
	return f
}

// Counter registers (or fetches) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, "", nil).get("").(*Counter)
}

// CounterVec registers (or fetches) a counter family labelled by labelKey.
func (r *Registry) CounterVec(name, help, labelKey string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labelKey, nil)}
}

// Gauge registers (or fetches) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, "", nil).get("").(*Gauge)
}

// GaugeVec registers (or fetches) a gauge family labelled by labelKey.
func (r *Registry) GaugeVec(name, help, labelKey string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, labelKey, nil)}
}

// Histogram registers (or fetches) an unlabelled fixed-bucket histogram with
// the given ascending upper bounds (an implicit +Inf bucket is appended).
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly ascending", name))
		}
	}
	return r.register(name, help, kindHistogram, "", bounds).get("").(*Histogram)
}

// Family describes one registered metric family.
type Family struct {
	Name  string
	Kind  string // "counter", "gauge" or "histogram"
	Label string // the label key; "" when unlabelled
}

// Families lists the registered families sorted by name, whether or not
// they hold a series yet.
func (r *Registry) Families() []Family {
	var out []Family
	for _, f := range r.sortedFamilies() {
		out = append(out, Family{Name: f.name, Kind: f.kind, Label: f.labelKey})
	}
	return out
}

// sortedFamilies returns the families sorted by name.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedSeries returns one family's (labelValue, metric) pairs sorted by
// label value.
func (f *family) sortedSeries() ([]string, []any) {
	f.mu.Lock()
	values := make([]string, 0, len(f.series))
	for v := range f.series {
		values = append(values, v)
	}
	sort.Strings(values)
	metrics := make([]any, len(values))
	for i, v := range values {
		metrics[i] = f.series[v]
	}
	f.mu.Unlock()
	return values, metrics
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// seriesName renders "name" or `name{key="value"}`.
func seriesName(name, key, value string) string {
	if key == "" {
		return name
	}
	return name + "{" + key + `="` + escapeLabel(value) + `"}`
}

// WriteTo renders the registry in Prometheus text exposition format:
// families sorted by name, series sorted by label value, one HELP and TYPE
// line per family. Values are read atomically per series (the snapshot is
// not a global atomic cut, which Prometheus scraping never requires).
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	for _, f := range r.sortedFamilies() {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		values, metrics := f.sortedSeries()
		for i, v := range values {
			switch m := metrics[i].(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s %d\n", seriesName(f.name, f.labelKey, v), m.Value())
			case *Gauge:
				fmt.Fprintf(&b, "%s %d\n", seriesName(f.name, f.labelKey, v), m.Value())
			case *Histogram:
				cum := int64(0)
				for bi, bound := range m.bounds {
					cum += m.counts[bi].Load()
					fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", f.name, bound, cum)
				}
				cum += m.counts[len(m.bounds)].Load()
				fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", f.name, cum)
				fmt.Fprintf(&b, "%s_sum %d\n", f.name, m.Sum())
				fmt.Fprintf(&b, "%s_count %d\n", f.name, m.Count())
			}
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Snapshot returns the deterministic text rendering (see WriteTo).
func (r *Registry) Snapshot() string {
	var b strings.Builder
	r.WriteTo(&b)
	return b.String()
}

// Series flattens the registry into series-name → value pairs — the form
// benchmark documents embed so telemetry rides alongside throughput numbers.
// Histograms contribute name_count, name_sum and cumulative name_bucket{le}
// entries.
func (r *Registry) Series() map[string]int64 {
	out := make(map[string]int64)
	for _, f := range r.sortedFamilies() {
		values, metrics := f.sortedSeries()
		for i, v := range values {
			switch m := metrics[i].(type) {
			case *Counter:
				out[seriesName(f.name, f.labelKey, v)] = m.Value()
			case *Gauge:
				out[seriesName(f.name, f.labelKey, v)] = m.Value()
			case *Histogram:
				cum := int64(0)
				for bi, bound := range m.bounds {
					cum += m.counts[bi].Load()
					out[fmt.Sprintf("%s_bucket{le=\"%d\"}", f.name, bound)] = cum
				}
				cum += m.counts[len(m.bounds)].Load()
				out[f.name+`_bucket{le="+Inf"}`] = cum
				out[f.name+"_sum"] = m.Sum()
				out[f.name+"_count"] = m.Count()
			}
		}
	}
	return out
}

// OneLine renders every counter and gauge as sorted "name=value" pairs on a
// single line, with histograms compressed to name_count and name_mean — the
// periodic stderr stats line for log-only deployments.
func (r *Registry) OneLine() string {
	var parts []string
	for _, f := range r.sortedFamilies() {
		values, metrics := f.sortedSeries()
		for i, v := range values {
			switch m := metrics[i].(type) {
			case *Counter:
				parts = append(parts, fmt.Sprintf("%s=%d", seriesName(f.name, f.labelKey, v), m.Value()))
			case *Gauge:
				parts = append(parts, fmt.Sprintf("%s=%d", seriesName(f.name, f.labelKey, v), m.Value()))
			case *Histogram:
				count := m.Count()
				mean := int64(0)
				if count > 0 {
					mean = m.Sum() / count
				}
				parts = append(parts, fmt.Sprintf("%s_count=%d", f.name, count),
					fmt.Sprintf("%s_mean=%d", f.name, mean))
			}
		}
	}
	return strings.Join(parts, " ")
}

// Handler returns an http.Handler serving the registry snapshot — the
// /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteTo(w)
	})
}
