// Package obs is the pipeline's observability layer: a dependency-free
// metrics registry, hierarchical trace spans over the study DAG, and a run
// manifest that makes every study auditable after the fact.
//
// The registry's design constraint is the same one the rest of the pipeline
// lives under: determinism. Every *count-valued* metric (counters, gauges
// set from simulation state, histogram bucket counts) must be byte-identical
// across -workers settings — counters are commutative sums and the pipeline
// only feeds them values derived from the seeded simulation, never from the
// scheduler. Wall-clock quantities (stage durations, goroutine counts,
// queue occupancy peaks) are real observability signals too, but they change
// run to run, so they live in a separate namespace: any metric whose name
// starts with WallPrefix is excluded from the deterministic snapshot and
// only appears on the full /metrics endpoint.
//
// A nil *Registry (and a nil *Tracer) is a valid, zero-cost off switch:
// every method on nil receivers is a no-op, so instrumented packages thread
// an optional registry without guarding each call site.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// WallPrefix marks wall-clock (non-deterministic) metric names. Metrics in
// this namespace are excluded from Snapshot(false) and from the golden
// artifacts derived from it.
const WallPrefix = "wall_"

// Registry holds named metrics. All methods are safe for concurrent use; a
// nil registry is a no-op sink.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Name composes a metric name with label pairs in Prometheus form:
// Name("x_total", "scenario", "bursty") -> `x_total{scenario="bursty"}`.
// Labels are emitted in the order given; callers must pass a fixed order so
// the composed name is stable.
func Name(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing count. The zero value is usable; a
// nil counter ignores updates.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an integer-valued instantaneous measurement. A nil gauge ignores
// updates.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta (negative to decrease) — live occupancy
// tracking (workers alive, requests in flight) where concurrent increments
// and decrements must not lose updates the way a read-modify-Set would.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// SetMax raises the gauge to v if v exceeds the stored value — a running
// maximum (peak queue occupancy, worst stage).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the stored value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets. Bucket upper bounds are
// inclusive (Prometheus `le` semantics) with an implicit +Inf bucket at the
// end. Bucket counts and the total count are deterministic whenever the
// observed values are; the running sum is kept for the Prometheus endpoint
// but excluded from deterministic snapshots because float accumulation order
// is scheduler-dependent.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1, last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Counter returns (creating if needed) the named counter. Nil-safe.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram with the given
// sorted upper bounds. Bounds are fixed at first creation; later callers get
// the existing histogram regardless of the bounds they pass. Nil-safe.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		h = &Histogram{bounds: bs, buckets: make([]atomic.Int64, len(bs)+1)}
		r.hists[name] = h
	}
	return h
}

// BucketCount is one histogram bucket in a snapshot: the count of
// observations at or below the upper bound (cumulative, Prometheus-style).
// The bound is math.Inf(1) for the implicit +Inf bucket; since JSON has no
// infinity, the wire form carries it as the string "+Inf".
type BucketCount struct {
	UpperBound float64
	Count      int64
}

type bucketJSON struct {
	UpperBound string `json:"le"`
	Count      int64  `json:"count"`
}

// MarshalJSON encodes the bound as a string ("+Inf" for the overflow
// bucket) so snapshots survive encoding/json, which rejects infinities.
func (b BucketCount) MarshalJSON() ([]byte, error) {
	return json.Marshal(bucketJSON{UpperBound: formatBound(b.UpperBound), Count: b.Count})
}

// UnmarshalJSON is MarshalJSON's inverse.
func (b *BucketCount) UnmarshalJSON(data []byte) error {
	var w bucketJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.UpperBound == "+Inf" {
		b.UpperBound = math.Inf(1)
	} else {
		v, err := strconv.ParseFloat(w.UpperBound, 64)
		if err != nil {
			return err
		}
		b.UpperBound = v
	}
	b.Count = w.Count
	return nil
}

// Metric is one snapshot entry.
type Metric struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "counter", "gauge" or "histogram"
	// Value holds counter/gauge values.
	Value int64 `json:"value,omitempty"`
	// Histogram fields.
	Buckets []BucketCount `json:"buckets,omitempty"`
	Count   int64         `json:"count,omitempty"`
	// Sum is the histogram's observation sum — wall-clock-grade only (float
	// accumulation order is scheduler-dependent), so it is omitted from
	// deterministic renderings.
	Sum float64 `json:"sum,omitempty"`
}

// Snapshot returns every metric sorted by (name); wall-namespace metrics are
// included only when includeWall is true. Nil-safe (returns nil).
func (r *Registry) Snapshot(includeWall bool) []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Metric
	keep := func(name string) bool {
		return includeWall || !strings.HasPrefix(name, WallPrefix)
	}
	for name, c := range r.counters {
		if keep(name) {
			out = append(out, Metric{Name: name, Kind: "counter", Value: c.Value()})
		}
	}
	for name, g := range r.gauges {
		if keep(name) {
			out = append(out, Metric{Name: name, Kind: "gauge", Value: g.Value()})
		}
	}
	for name, h := range r.hists {
		if !keep(name) {
			continue
		}
		m := Metric{Name: name, Kind: "histogram", Count: h.count.Load(),
			Sum: math.Float64frombits(h.sumBits.Load())}
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.buckets[i].Load()
			m.Buckets = append(m.Buckets, BucketCount{UpperBound: b, Count: cum})
		}
		cum += h.buckets[len(h.bounds)].Load()
		m.Buckets = append(m.Buckets, BucketCount{UpperBound: math.Inf(1), Count: cum})
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func formatBound(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", b)
}

// labeled splits `base{labels}` into base and the brace-wrapped label block
// ("" when unlabeled).
func labeled(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// RenderText renders the snapshot as deterministic plain text: one
// `name value` line per counter/gauge, Prometheus-shaped bucket lines per
// histogram (no _sum — see Histogram). This is the format committed as a
// golden artifact.
func (r *Registry) RenderText(includeWall bool) string {
	var b strings.Builder
	for _, m := range r.Snapshot(includeWall) {
		switch m.Kind {
		case "histogram":
			base, labels := labeled(m.Name)
			for _, bc := range m.Buckets {
				le := fmt.Sprintf("le=%q", formatBound(bc.UpperBound))
				if labels == "" {
					fmt.Fprintf(&b, "%s_bucket{%s} %d\n", base, le, bc.Count)
				} else {
					fmt.Fprintf(&b, "%s_bucket%s %d\n", base,
						labels[:len(labels)-1]+","+le+"}", bc.Count)
				}
			}
			fmt.Fprintf(&b, "%s_count%s %d\n", base, labels, m.Count)
		default:
			fmt.Fprintf(&b, "%s %d\n", m.Name, m.Value)
		}
	}
	return b.String()
}

// WritePrometheus renders the full registry (wall namespace included) in the
// Prometheus text exposition format, with TYPE comments and histogram
// _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	typed := make(map[string]bool)
	for _, m := range r.Snapshot(true) {
		base, labels := labeled(m.Name)
		kind := m.Kind
		if !typed[base] {
			typed[base] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind); err != nil {
				return err
			}
		}
		switch m.Kind {
		case "histogram":
			for _, bc := range m.Buckets {
				le := fmt.Sprintf("le=%q", formatBound(bc.UpperBound))
				series := base + "_bucket{" + le + "}"
				if labels != "" {
					series = base + "_bucket" + labels[:len(labels)-1] + "," + le + "}"
				}
				if _, err := fmt.Fprintf(w, "%s %d\n", series, bc.Count); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", base, labels, m.Sum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", base, labels, m.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", base, labels, m.Value); err != nil {
				return err
			}
		}
	}
	return nil
}
