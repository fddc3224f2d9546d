// Package obs is the observability layer of the repository: a
// dependency-free metrics registry (atomic counters, gauges,
// fixed-bucket histograms, labelled families and scrape-time callback
// metrics) with Prometheus text-format exposition, plus span tracing
// (span.go) whose bounded span events carry the optimisers'
// convergence curves.
//
// The instruments are deliberately minimal: lock-free atomic updates
// on the hot paths (a counter increment is one atomic add, a histogram
// observation one binary search plus three atomics), registration is
// idempotent (asking for an existing (name, labels) series returns the
// same instrument), and the whole package depends only on the standard
// library, so every internal package may import it without dragging in
// an exporter ecosystem.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metric families are typed; the type names match the Prometheus
// exposition TYPE keywords.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// addFloat atomically adds v to the float64 stored as bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Counter is a monotonically increasing value. The zero value is not
// usable on its own: obtain counters from a Registry.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { addFloat(&c.bits, 1) }

// Add adds v; negative increments are a programming error and panic.
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("obs: counter decremented")
	}
	addFloat(&c.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds v (negative values subtract).
func (g *Gauge) Add(v float64) { addFloat(&g.bits, v) }

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative buckets, in the
// Prometheus le (less-or-equal) convention. Observations are lock-free.
type Histogram struct {
	// bounds are the inclusive upper bounds, sorted ascending; the
	// implicit +Inf bucket is counts[len(bounds)].
	bounds []float64
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Uint64
	// exemplars[i] is the most recent exemplar landing in bucket i
	// (same indexing as counts); only the OpenMetrics rendering
	// exposes them.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links one histogram observation to the trace it belongs
// to, so a latency bucket in a scrape points at a concrete trace.
type Exemplar struct {
	Value   float64
	TraceID string
	Time    time.Time
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bound >= v is exactly the le bucket the value falls into.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	addFloat(&h.sum, v)
	h.count.Add(1)
}

// ObserveExemplar records one value and, when traceID is non-empty,
// keeps it as the bucket's exemplar (last write wins; the OpenMetrics
// scrape renders it as `# {trace_id="..."} value ts`).
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	addFloat(&h.sum, v)
	h.count.Add(1)
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID, Time: time.Now()})
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot returns cumulative bucket counts aligned with bounds plus
// the +Inf total. Reading the buckets is not atomic as a whole; the
// exposition tolerates the skew (each bucket is individually exact).
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.counts))
	var running uint64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return cum, h.count.Load(), h.Sum()
}

// DefBuckets are the default latency buckets (seconds), spanning 1 ms
// to 10 s — a fit for request handling and optimisation runs.
var DefBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// IOBuckets are latency buckets (seconds) for storage operations,
// spanning 100 µs to 1 s — a fit for fsync-bound appends.
var IOBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1}

// series is one sample stream of a family: a fixed label assignment
// plus the instrument (or callback) producing its value.
type series struct {
	labels []string // alternating key, value
	sig    string   // canonical signature of labels
	// Exactly one of the following is set.
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// value returns the scalar sample of a counter/gauge/func series.
func (s *series) value() float64 {
	switch {
	case s.counter != nil:
		return s.counter.Value()
	case s.gauge != nil:
		return s.gauge.Value()
	default:
		return s.fn()
	}
}

// family is one named metric with its type, help text and series set.
type family struct {
	name, help, typ string
	buckets         []float64 // histograms only
	series          map[string]*series
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. All methods are safe for concurrent use; the
// instrument getters are idempotent, so hot paths may re-ask for a
// series instead of caching the instrument (caching is still cheaper).
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// signature canonicalises a label pairing; label order is preserved as
// given (families keep a consistent order by construction).
func signature(labels []string) string {
	return strings.Join(labels, "\xff")
}

// validate panics on malformed metric or label names: these are
// programming errors, caught at first registration, never at scrape.
func validate(name string, labels []string) {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %q: labels must be alternating key/value pairs", name))
	}
	for i := 0; i < len(labels); i += 2 {
		if !labelRe.MatchString(labels[i]) {
			panic(fmt.Sprintf("obs: metric %q: invalid label name %q", name, labels[i]))
		}
	}
}

// lookup returns (creating if needed) the family and the series for
// (name, labels), enforcing type and help consistency.
func (r *Registry) lookup(name, help, typ string, buckets []float64, labels []string) *series {
	validate(name, labels)
	sig := signature(labels)

	r.mu.RLock()
	if f, ok := r.fams[name]; ok {
		s, ok := f.series[sig]
		if ok && f.typ == typ && s.fn == nil {
			r.mu.RUnlock()
			return s
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, buckets: buckets, series: map[string]*series{}}
		r.fams[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	if s, ok := f.series[sig]; ok {
		if s.fn != nil {
			panic(fmt.Sprintf("obs: metric %q %v: registered as a callback series, cannot be re-obtained as an instrument", name, labels))
		}
		return s
	}
	s := &series{labels: append([]string(nil), labels...), sig: sig}
	switch typ {
	case typeCounter:
		s.counter = &Counter{}
	case typeGauge:
		s.gauge = &Gauge{}
	case typeHistogram:
		h := &Histogram{bounds: append([]float64(nil), f.buckets...)}
		if !sort.Float64sAreSorted(h.bounds) {
			panic(fmt.Sprintf("obs: metric %q: histogram buckets not sorted", name))
		}
		h.counts = make([]atomic.Uint64, len(h.bounds)+1)
		h.exemplars = make([]atomic.Pointer[Exemplar], len(h.bounds)+1)
		s.hist = h
	}
	f.series[sig] = s
	return s
}

// Counter returns the counter series for (name, labels), registering
// the family on first use. labels are alternating key/value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.lookup(name, help, typeCounter, nil, labels).counter
}

// Gauge returns the gauge series for (name, labels).
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.lookup(name, help, typeGauge, nil, labels).gauge
}

// Histogram returns the histogram series for (name, labels). The
// bucket bounds of a family are fixed by its first registration.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	return r.lookup(name, help, typeHistogram, buckets, labels).hist
}

// CounterFunc registers a scrape-time callback as a counter series:
// fn must be monotone (the campaign engine's atomic totals are). A
// second registration of the same (name, labels) panics.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.registerFunc(name, help, typeCounter, fn, labels)
}

// GaugeFunc registers a scrape-time callback as a gauge series.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.registerFunc(name, help, typeGauge, fn, labels)
}

func (r *Registry) registerFunc(name, help, typ string, fn func() float64, labels []string) {
	validate(name, labels)
	if fn == nil {
		panic(fmt.Sprintf("obs: metric %q: nil callback", name))
	}
	sig := signature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: map[string]*series{}}
		r.fams[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	if _, ok := f.series[sig]; ok {
		panic(fmt.Sprintf("obs: metric %q: duplicate callback series %v", name, labels))
	}
	f.series[sig] = &series{labels: append([]string(nil), labels...), sig: sig, fn: fn}
}

// Names returns the sorted names of every registered family; the
// docs-drift guard walks it against the OPERATIONS.md metrics table.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
