package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// BENCHMARK.json at the repository root must name only workloads this
// program runs, and exactly the metrics it measures, with the same units.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	for _, w := range f.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not in the program", w.Name)
		}
	}
	check := func(kind string, defs []metricDef, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.Name || got[i].Unit != d.Unit {
				t.Errorf("%s #%d: BENCHMARK.json has %s [%s], the program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, d.Name, d.Unit)
			}
		}
	}
	check("end_to_end", endToEnd, f.EndToEnd)
	check("per_layer", perLayer, f.PerLayer)
}

// Every layer a workload lists must name per-layer metrics, and every
// per-layer metric must belong to a layer some workload runs.
func TestWorkloadLayersNamePerLayerMetrics(t *testing.T) {
	measured := map[string]bool{}
	for _, d := range perLayer {
		if d.Layer == "" {
			t.Errorf("per-layer metric %s has no layer", d.Name)
		}
		measured[d.Layer] = false
	}
	for name, w := range workloads {
		for _, l := range w.layers {
			if _, ok := measured[l]; !ok {
				t.Errorf("workload %s lists layer %s, which has no metric", name, l)
			}
			measured[l] = true
		}
	}
	for l, ran := range measured {
		if !ran {
			t.Errorf("layer %s is run by no workload", l)
		}
	}
}

// A traced run fails when a metric of a layer its workload runs is missing,
// and reports 0 with n = 0 only for the layers the workload never calls.
func TestSummarizeRequiresLayersTheWorkloadRuns(t *testing.T) {
	defs := []metricDef{
		{"a.x_s", "s", "a"},
		{"b.y_s", "s", "b"},
	}
	o := &outcome{attempted: 1}
	o.add("a.x_s", "s", 1.5, 3)
	s, err := summarize(o, defs, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics["a.x_s"].Value; got != 1.5 {
		t.Errorf("a.x_s = %v, want 1.5", got)
	}
	if m, ok := o.lookup("b.y_s"); !ok || m.Value != 0 || m.N != 0 {
		t.Errorf("b.y_s of a layer never called = %+v, %v; want 0 with n = 0", m, ok)
	}

	o = &outcome{attempted: 1}
	o.add("a.x_s", "s", 1.5, 3)
	if _, err := summarize(o, defs, []string{"a", "b"}); err == nil {
		t.Error("a missing metric of a layer the workload runs was accepted")
	}
	if _, err := summarize(&outcome{attempted: 1}, endToEnd, nil); err == nil {
		t.Error("a missing end-to-end metric was accepted")
	}
}

// Every run seed, negative ones included, selects a vetted study seed, and
// seeds a whole list apart select the same one.
func TestStudySeedSkipsDeadCrawl(t *testing.T) {
	n := int64(len(studySeeds))
	for seed := -2 * n; seed < 2*n; seed++ {
		s := studySeed(seed)
		if s < 1 || s > 40 || s == 19 {
			t.Errorf("studySeed(%d) = %d", seed, s)
		}
		if studySeed(seed+n) != s {
			t.Errorf("studySeed(%d) != studySeed(%d)", seed, seed+n)
		}
	}
}

// The overhead of a rate grows, as that of a time does, when tracing slows
// the program down.
func TestRateOverheadGrowsWithCost(t *testing.T) {
	if got := overhead(11, 10); got <= 0 {
		t.Errorf("time overhead of a slower traced run = %v, want > 0", got)
	}
	if got := rateOverhead(9, 10); got <= 0 {
		t.Errorf("rate overhead of a slower traced run = %v, want > 0", got)
	}
}
