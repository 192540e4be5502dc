// Observability determinism suite: the obs layer's deterministic surface —
// count-valued metric snapshots and structural trace records — must be
// byte-identical for any -workers setting, with and without an active fault
// scenario, and enabling instrumentation must not perturb the report itself.
package reuseblock_test

import (
	"reflect"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/core"
	"github.com/reuseblock/reuseblock/internal/faults"
	"github.com/reuseblock/reuseblock/internal/obs"
)

// obsStudy runs the small two-vantage study with instrumentation enabled and
// returns the report text, the registry and the tracer.
func obsStudy(t *testing.T, workers int, scenario string) (string, *obs.Registry, *obs.Tracer) {
	t.Helper()
	scn, err := faults.Lookup(scenario)
	if err != nil {
		t.Fatal(err)
	}
	wp := blgen.DefaultParams(1)
	wp.Scale = 0.05
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	s := core.NewStudy(core.Config{
		Seed:          1,
		World:         &wp,
		CrawlDuration: 4 * time.Hour,
		Vantages:      2,
		Workers:       workers,
		Faults:        scn,
		Obs:           reg,
		Trace:         tr,
	})
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("scenario %q workers %d: %v", scenario, workers, err)
	}
	return rep.Render(), reg, tr
}

// structural projects a tracer's records onto their deterministic fields.
func structural(tr *obs.Tracer) []obs.SpanRecord {
	recs := tr.Records()
	out := make([]obs.SpanRecord, len(recs))
	for i, r := range recs {
		out[i] = r.Structural()
	}
	return out
}

// TestObsSnapshotWorkerInvariant pins the package's core contract: the
// deterministic metric snapshot and the structural span tree are identical
// for 1 and 4 workers — fault-free and under an active fault scenario.
func TestObsSnapshotWorkerInvariant(t *testing.T) {
	scenarios := []string{"", "bursty"}
	if testing.Short() {
		scenarios = scenarios[:1]
	}
	for _, scenario := range scenarios {
		name := scenario
		if name == "" {
			name = "fault-free"
		}
		t.Run(name, func(t *testing.T) {
			rep1, reg1, tr1 := obsStudy(t, 1, scenario)
			rep4, reg4, tr4 := obsStudy(t, 4, scenario)
			if rep1 != rep4 {
				t.Error("report text differs between 1 and 4 workers")
			}
			m1, m4 := reg1.RenderText(false), reg4.RenderText(false)
			if m1 != m4 {
				t.Errorf("deterministic metric snapshot differs between 1 and 4 workers:\n--- workers=1\n%s\n--- workers=4\n%s", m1, m4)
			}
			if m1 == "" {
				t.Error("instrumented study recorded no metrics")
			}
			// The fabric's window count is a wall metric: the fabric has one
			// shard per worker, and a one-shard fabric runs no windows.
			if w1, w4 := wallCounter(reg1, "wall_fabric_windows_total"), wallCounter(reg4, "wall_fabric_windows_total"); w1 != 0 || w4 == 0 {
				t.Errorf("fabric windows: %d at 1 worker, %d at 4; want 0 and more", w1, w4)
			}
			s1, s4 := structural(tr1), structural(tr4)
			if len(s1) == 0 {
				t.Error("instrumented study recorded no spans")
			}
			if !reflect.DeepEqual(s1, s4) {
				t.Errorf("structural span records differ between 1 and 4 workers (%d vs %d spans)", len(s1), len(s4))
			}
		})
	}
}

// wallCounter returns the named metric's value from reg's full snapshot,
// 0 when it is absent.
func wallCounter(reg *obs.Registry, name string) int64 {
	for _, m := range reg.Snapshot(true) {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// TestObsOffLeavesReportUnchanged proves instrumentation is non-invasive:
// the same study with Obs and Trace nil renders the same report bytes.
func TestObsOffLeavesReportUnchanged(t *testing.T) {
	instrumented, _, _ := obsStudy(t, 2, "")
	wp := blgen.DefaultParams(1)
	wp.Scale = 0.05
	s := core.NewStudy(core.Config{
		Seed:          1,
		World:         &wp,
		CrawlDuration: 4 * time.Hour,
		Vantages:      2,
		Workers:       2,
	})
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Render() != instrumented {
		t.Error("enabling obs changed the report bytes")
	}
}

// TestObsManifestStages pins the manifest's deterministic fields after a run.
func TestObsManifestStages(t *testing.T) {
	wp := blgen.DefaultParams(1)
	wp.Scale = 0.05
	scn, err := faults.Lookup("bursty")
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewStudy(core.Config{
		Seed:          1,
		World:         &wp,
		CrawlDuration: 4 * time.Hour,
		Vantages:      2,
		Workers:       2,
		Faults:        scn,
		Obs:           obs.NewRegistry(),
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	m := s.Manifest()
	if m.Seed != 1 || m.Workers != 2 || m.Vantages != 2 || m.FaultScenario != "bursty" {
		t.Errorf("manifest params = %+v", m)
	}
	wantStages := map[string]bool{"crawl": false, "ripe": false, "icmp": false, "survey": false}
	for _, st := range m.Stages {
		if _, ok := wantStages[st.Stage]; ok {
			wantStages[st.Stage] = true
		}
		if st.Status == "" {
			t.Errorf("stage %q has empty status", st.Stage)
		}
	}
	for stage, seen := range wantStages {
		if !seen {
			t.Errorf("manifest missing stage %q", stage)
		}
	}
	if len(m.Metrics) == 0 {
		t.Error("manifest carries no metric snapshot")
	}
	if _, err := m.JSON(); err != nil {
		t.Errorf("manifest does not marshal: %v", err)
	}
}
