package obs

import (
	"fmt"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(3)
	r.Counter("x").Inc()
	r.Gauge("g").Set(7)
	r.Gauge("g").SetMax(9)
	r.Histogram("h", []float64{1, 2}).Observe(1.5)
	if got := r.Snapshot(true); got != nil {
		t.Errorf("nil registry snapshot = %v, want nil", got)
	}
	if got := r.RenderText(true); got != "" {
		t.Errorf("nil registry text = %q", got)
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil registry prometheus: %v", err)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(2)
	r.Counter("a_total").Inc()
	if got := r.Counter("a_total").Value(); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	g := r.Gauge("g")
	g.Set(5)
	g.SetMax(3) // lower: ignored
	if got := g.Value(); got != 5 {
		t.Errorf("gauge after SetMax(3) = %d, want 5", got)
	}
	g.SetMax(11)
	if got := g.Value(); got != 11 {
		t.Errorf("gauge after SetMax(11) = %d, want 11", got)
	}
}

// TestGaugeAdd pins the occupancy-tracking contract: Add moves the value by
// a delta (negative to decrease), can go below zero, is concurrency-safe
// (no lost updates the way read-modify-Set would lose them), and the result
// shows up in both render surfaces.
func TestGaugeAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("live")
	g.Add(3)
	g.Add(4)
	g.Add(-5)
	if got := g.Value(); got != 2 {
		t.Errorf("gauge after +3+4-5 = %d, want 2", got)
	}
	g.Add(-3)
	if got := g.Value(); got != -1 {
		t.Errorf("gauge may go negative: got %d, want -1", got)
	}
	var nilG *Gauge
	nilG.Add(7) // must not panic

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != -1 {
		t.Errorf("concurrent balanced Adds drifted: got %d, want -1", got)
	}

	g.Add(5) // settle at 4 for rendering
	if text := r.RenderText(true); !strings.Contains(text, "live 4") {
		t.Errorf("RenderText missing gauge: %s", text)
	}
	found := false
	for _, m := range r.Snapshot(true) {
		if m.Name == "live" && m.Value == 4 {
			found = true
		}
	}
	if !found {
		t.Errorf("Snapshot missing live=4: %+v", r.Snapshot(true))
	}
}

// TestHistogramBucketBoundaries pins the `le` (inclusive upper bound)
// semantics: a value equal to a bound lands in that bound's bucket, a value
// just above it lands in the next, and values beyond every bound land in
// +Inf only.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("users", []float64{2, 4, 8})
	for _, v := range []float64{1, 2, 2.0001, 4, 7.9, 8, 8.1, 1e9} {
		h.Observe(v)
	}
	snap := r.Snapshot(false)
	if len(snap) != 1 || snap[0].Kind != "histogram" {
		t.Fatalf("snapshot = %+v", snap)
	}
	m := snap[0]
	// Cumulative counts: le=2 gets {1,2}; le=4 adds {2.0001,4}; le=8 adds
	// {7.9,8}; +Inf adds {8.1,1e9}.
	want := []struct {
		le    float64
		count int64
	}{{2, 2}, {4, 4}, {8, 6}, {math.Inf(1), 8}}
	if len(m.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", m.Buckets)
	}
	for i, w := range want {
		b := m.Buckets[i]
		if b.UpperBound != w.le || b.Count != w.count {
			t.Errorf("bucket %d = {le:%v count:%d}, want {le:%v count:%d}",
				i, b.UpperBound, b.Count, w.le, w.count)
		}
	}
	if m.Count != 8 {
		t.Errorf("count = %d, want 8", m.Count)
	}
}

func TestWallNamespaceExcludedFromDeterministicSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("tasks_total").Add(4)
	r.Gauge(WallPrefix + "stage_millis").Set(123)
	det := r.RenderText(false)
	if strings.Contains(det, WallPrefix) {
		t.Errorf("deterministic text contains wall metrics:\n%s", det)
	}
	if !strings.Contains(det, "tasks_total 4") {
		t.Errorf("deterministic text missing counter:\n%s", det)
	}
	full := r.RenderText(true)
	if !strings.Contains(full, WallPrefix+"stage_millis 123") {
		t.Errorf("full text missing wall gauge:\n%s", full)
	}
}

func TestNameComposesLabels(t *testing.T) {
	got := Name("drops_total", "scenario", "bursty", "mechanism", "ge")
	want := `drops_total{scenario="bursty",mechanism="ge"}`
	if got != want {
		t.Errorf("Name = %s, want %s", got, want)
	}
	if got := Name("plain"); got != "plain" {
		t.Errorf("Name no labels = %s", got)
	}
}

func TestConcurrentCountsSumExactly(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("n_total")
			h := r.Histogram("h", []float64{10})
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 20))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n_total").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	snap := r.Snapshot(false)
	for _, m := range snap {
		if m.Kind == "histogram" && m.Count != 8000 {
			t.Errorf("histogram count = %d, want 8000", m.Count)
		}
	}
}

// parsePrometheus is a minimal exposition-format reader: it checks comment
// and sample-line syntax and returns sample name -> value.
func parsePrometheus(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 4 || fields[1] != "TYPE" {
				t.Fatalf("malformed comment line %q", line)
			}
			switch fields[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown TYPE %q in %q", fields[3], line)
			}
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		name, valStr := line[:i], line[i+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		if strings.Count(name, "{") > 1 || (strings.Contains(name, "{") && !strings.HasSuffix(name, "}")) {
			t.Fatalf("malformed series name %q", name)
		}
		out[name] = v
	}
	return out
}

func TestPrometheusEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("crawler_retries_total").Add(17)
	r.Counter(Name("faults_dropped_total", "scenario", "bursty")).Add(5)
	r.Gauge(WallPrefix + "stage_millis").Set(250)
	r.Histogram("nat_users", []float64{2, 8}).Observe(3)

	rec := httptest.NewRecorder()
	MetricsHandler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	samples := parsePrometheus(t, rec.Body.String())
	checks := map[string]float64{
		"crawler_retries_total":                   17,
		`faults_dropped_total{scenario="bursty"}`: 5,
		WallPrefix + "stage_millis":               250,
		`nat_users_bucket{le="2"}`:                0,
		`nat_users_bucket{le="8"}`:                1,
		`nat_users_bucket{le="+Inf"}`:             1,
		"nat_users_count":                         0 + 1,
	}
	for name, want := range checks {
		if got, ok := samples[name]; !ok || got != want {
			t.Errorf("sample %s = %v (present=%v), want %v", name, got, ok, want)
		}
	}
}

func TestRenderTextLabeledHistogram(t *testing.T) {
	r := NewRegistry()
	r.Histogram(Name("lat", "stage", "crawl"), []float64{1}).Observe(0.5)
	text := r.RenderText(false)
	want := "lat_bucket{stage=\"crawl\",le=\"1\"} 1\n" +
		"lat_bucket{stage=\"crawl\",le=\"+Inf\"} 1\n" +
		"lat_count{stage=\"crawl\"} 1\n"
	if text != want {
		t.Errorf("labeled histogram text:\n%s\nwant:\n%s", text, want)
	}
}

func TestManifestJSON(t *testing.T) {
	m := NewManifest()
	m.Seed, m.Workers, m.FaultScenario = 7, 4, "bursty"
	m.Stages = append(m.Stages, StageStatus{Stage: "crawl", Status: "ok"})
	data, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"seed": 7`, `"workers": 4`, `"fault_scenario": "bursty"`, `"go_version"`, `"stage": "crawl"`} {
		if !strings.Contains(s, want) {
			t.Errorf("manifest JSON missing %s:\n%s", want, s)
		}
	}
}

func TestManifestHandler(t *testing.T) {
	m := NewManifest()
	m.Seed = 3
	h := ManifestHandler(func() *Manifest { return m })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/manifest", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"seed": 3`) {
		t.Errorf("manifest handler: code %d body %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	ManifestHandler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/manifest", nil))
	if rec.Code != 404 {
		t.Errorf("nil manifest source: code %d, want 404", rec.Code)
	}
}

func ExampleRegistry_RenderText() {
	r := NewRegistry()
	r.Counter("queries_total").Add(42)
	r.Gauge("workers").Set(4)
	fmt.Print(r.RenderText(false))
	// Output:
	// queries_total 42
	// workers 4
}
