// Golden-file regression tests: the files committed under bench_artifacts/
// are exactly what the artifacts table below renders. Any change to world
// generation, the simulator, the detectors or the joins shows up here as a
// byte-level diff; regenerate intentionally with `make bench`
// (go test -run '^TestGoldenArtifacts$' -update .).
package reuseblock_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/reuseblock/reuseblock/internal/core"
	"github.com/reuseblock/reuseblock/internal/obs"
)

var update = flag.Bool("update", false, "write bench_artifacts/ from the artifacts table instead of checking it")

// artifacts is the one list of committed artifacts, in the order they are
// rendered: the paper's tables and figures, the default study's metric
// snapshot, then the ablations of §3's design choices (ablation_test.go).
var artifacts = []struct {
	file   string
	render func(testing.TB) string
}{
	{"figure2.txt", fromReport(func(rep *core.Report) string { return rep.Figure2().Render() })},
	{"figure3.txt", fromReport(func(rep *core.Report) string { return rep.Overlap.Figure3().Render() })},
	{"figure4.txt", fromReport(func(rep *core.Report) string { return rep.Funnel.Table().Render() })},
	{"figure5.txt", fromReport(func(rep *core.Report) string { return rep.PerList.Figure5().Render() })},
	{"figure6.txt", fromReport(func(rep *core.Report) string { return rep.PerList.Figure6().Render() })},
	{"figure7.txt", fromReport(func(rep *core.Report) string { return rep.Durations.Figure7().Render() })},
	{"figure8.txt", fromReport(func(rep *core.Report) string { return rep.NATUsers.Figure8().Render() })},
	{"figure9.txt", fromReport(func(rep *core.Report) string { return rep.Figure9().Render() })},
	{"table1.txt", fromReport(func(rep *core.Report) string { return rep.Table1().Render() })},
	{"table2.txt", fromReport(func(rep *core.Report) string { return rep.Table2().Render() })},
	{"section4.txt", fromReport(func(rep *core.Report) string { return rep.CrawlStatsTable().Render() })},
	{"section5.txt", fromReport(func(rep *core.Report) string {
		return fmt.Sprintf("top NATed feeds: %v\ntop dynamic feeds: %v\n", rep.PerList.TopNATedFeeds, rep.PerList.TopDynamicFeeds)
	})},
	{"metrics.txt", func(tb testing.TB) string { s, _ := study(tb); return s.Config.Obs.RenderText(false) }},
	{"ablation_expandbits.txt", ablationExpandBits},
	{"ablation_knee.txt", ablationKnee},
	{"ablation_cooldown.txt", ablationCooldown},
	{"ablation_churn.txt", ablationChurn},
	{"ablation_vantages.txt", ablationVantages},
}

// TestGoldenArtifacts renders every entry of the artifacts table and diffs
// it against its committed copy, or writes it there under -update. A listed
// file that is missing and a file the table does not name both fail.
func TestGoldenArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full default-scale study; skipped in -short mode")
	}
	const dir = "bench_artifacts"
	listed := make(map[string]bool, len(artifacts))
	for _, a := range artifacts {
		listed[a.file] = true
		t.Run(a.file, func(t *testing.T) {
			got := a.render(t)
			path := filepath.Join(dir, a.file)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v; regenerate with `make bench`", err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from the committed golden copy (len %d -> %d);\n"+
					"if the change is intentional, regenerate with `make bench`\ngot:\n%s",
					path, len(want), len(got), got)
			}
		})
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !listed[e.Name()] {
			t.Errorf("%s is not in the artifacts table", filepath.Join(dir, e.Name()))
		}
	}
}

// The default-scale study behind every paper artifact, built once because
// the full crawl is the expensive part and every figure joins against it.
var (
	defaultOnce   sync.Once
	defaultStudy  *core.Study
	defaultReport *core.Report
)

func study(tb testing.TB) (*core.Study, *core.Report) {
	tb.Helper()
	defaultOnce.Do(func() {
		// Instrumentation is on: metrics.txt pins its deterministic
		// snapshot, and the report artifacts prove it changes no byte.
		s := core.NewStudy(core.Config{Seed: 1, Obs: obs.NewRegistry(), Trace: obs.NewTracer()})
		rep, err := s.Run()
		if err != nil {
			panic(err)
		}
		defaultStudy, defaultReport = s, rep
	})
	return defaultStudy, defaultReport
}

// fromReport renders an artifact from the default study's report.
func fromReport(render func(*core.Report) string) func(testing.TB) string {
	return func(tb testing.TB) string {
		_, rep := study(tb)
		return render(rep)
	}
}
