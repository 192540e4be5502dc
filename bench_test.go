// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark measures the computation that produces its artifact and, on
// the first run, writes the rendered rows/series to bench_artifacts/ so the
// output can be compared against the paper (see EXPERIMENTS.md).
//
// Run with:
//
//	go test -bench=. -benchmem .
package reuseblock_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/analysis"
	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/blocklist"
	"github.com/reuseblock/reuseblock/internal/core"
	"github.com/reuseblock/reuseblock/internal/obs"
	"github.com/reuseblock/reuseblock/internal/ripeatlas"
	"github.com/reuseblock/reuseblock/internal/stats"
	"github.com/reuseblock/reuseblock/internal/survey"
)

// benchStudy is the shared default-scale study; built once because the full
// crawl is the expensive part and every figure joins against its results.
// Shared between the benchmarks and the golden-file regression test.
var (
	benchOnce   sync.Once
	benchStudy  *core.Study
	benchReport *core.Report
)

func study(tb testing.TB) (*core.Study, *core.Report) {
	tb.Helper()
	benchOnce.Do(func() {
		// Instrumentation is on for the shared study: the golden tests both
		// diff its deterministic metric snapshot (metrics.txt) and prove the
		// report artifacts still match the pre-obs goldens byte for byte.
		s := core.NewStudy(core.Config{Seed: 1, Obs: obs.NewRegistry(), Trace: obs.NewTracer()})
		rep, err := s.Run()
		if err != nil {
			panic(err)
		}
		benchStudy, benchReport = s, rep
	})
	return benchStudy, benchReport
}

// writeArtifact saves rendered output next to the bench results.
func writeArtifact(tb testing.TB, name, content string) {
	tb.Helper()
	dir := "bench_artifacts"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		tb.Fatalf("artifact dir: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		tb.Fatalf("artifact: %v", err)
	}
}

// BenchmarkFigure2ProbeAllocations regenerates Fig 2: per-probe allocation
// counts with the knee threshold, from the raw RIPE connection logs.
func BenchmarkFigure2ProbeAllocations(b *testing.B) {
	s, rep := study(b)
	b.ResetTimer()
	var res *ripeatlas.Result
	for i := 0; i < b.N; i++ {
		res = ripeatlas.Detect(s.World.RIPELogs, ripeatlas.DetectOptions{})
	}
	b.ReportMetric(float64(res.KneeThreshold), "knee-threshold")
	b.ReportMetric(float64(res.TotalProbes), "probes")
	writeArtifact(b, "figure2.txt", rep.Figure2().Render())
}

// BenchmarkFigure3ASOverlapCDF regenerates Fig 3: the per-AS cumulative
// distribution of blocklisted, BitTorrent and RIPE addresses.
func BenchmarkFigure3ASOverlapCDF(b *testing.B) {
	s, _ := study(b)
	b.ResetTimer()
	var o *analysis.ASOverlap
	for i := 0; i < b.N; i++ {
		o = analysis.ComputeASOverlap(s.Inputs)
	}
	b.ReportMetric(stats.Fraction(o.ASesWithBT, o.ASesWithBlocklisted)*100, "%ASes-with-BT")
	b.ReportMetric(stats.Fraction(o.ASesWithRIPE, o.ASesWithBlocklisted)*100, "%ASes-with-RIPE")
	writeArtifact(b, "figure3.txt", o.Figure3().Render())
}

// BenchmarkFigure4DetectionFunnel regenerates the Fig 4 funnel counts.
func BenchmarkFigure4DetectionFunnel(b *testing.B) {
	s, rep := study(b)
	stages := analysis.RIPEStages{
		SameAS:   s.RIPE.SameASAddresses.Slash24s(),
		Frequent: s.RIPE.FrequentAddresses.Slash24s(),
		Daily:    s.RIPE.DynamicPrefixes,
	}
	b.ResetTimer()
	var f *analysis.Funnel
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFunnel(s.Inputs, s.CrawlStats.UniqueIPs, stages)
	}
	b.ReportMetric(float64(f.NATedIPs), "NATed-IPs")
	b.ReportMetric(float64(f.DailyBlocklisted), "daily-blocklisted")
	writeArtifact(b, "figure4.txt", rep.Funnel.Table().Render())
}

// BenchmarkFigure5NATedPerBlocklist regenerates Fig 5.
func BenchmarkFigure5NATedPerBlocklist(b *testing.B) {
	s, _ := study(b)
	b.ResetTimer()
	var r *analysis.PerListReuse
	for i := 0; i < b.N; i++ {
		r = analysis.ComputePerListReuse(s.Inputs)
	}
	b.ReportMetric(float64(r.NATedListings), "NATed-listings")
	b.ReportMetric(float64(r.FeedsWithoutNATed), "feeds-without")
	writeArtifact(b, "figure5.txt", r.Figure5().Render())
}

// BenchmarkFigure6DynamicPerBlocklist regenerates Fig 6 including the Cai et
// al. ICMP baseline series.
func BenchmarkFigure6DynamicPerBlocklist(b *testing.B) {
	s, _ := study(b)
	b.ResetTimer()
	var r *analysis.PerListReuse
	for i := 0; i < b.N; i++ {
		r = analysis.ComputePerListReuse(s.Inputs)
	}
	b.ReportMetric(float64(r.DynamicListings), "dynamic-listings")
	b.ReportMetric(float64(r.CaiDynamicListings), "cai-listings")
	writeArtifact(b, "figure6.txt", r.Figure6().Render())
}

// BenchmarkFigure7DurationCDF regenerates Fig 7's duration distributions.
func BenchmarkFigure7DurationCDF(b *testing.B) {
	s, _ := study(b)
	b.ResetTimer()
	var d *analysis.Durations
	for i := 0; i < b.N; i++ {
		d = analysis.ComputeDurations(s.Inputs)
	}
	b.ReportMetric(d.AllMean, "all-mean-days")
	b.ReportMetric(d.NATedMean, "nat-mean-days")
	b.ReportMetric(d.DynamicMean, "dyn-mean-days")
	writeArtifact(b, "figure7.txt", d.Figure7().Render())
}

// BenchmarkFigure8NATUserCDF regenerates Fig 8's users-behind-NAT CDF.
func BenchmarkFigure8NATUserCDF(b *testing.B) {
	s, _ := study(b)
	b.ResetTimer()
	var n *analysis.NATUsers
	for i := 0; i < b.N; i++ {
		n = analysis.ComputeNATUsers(s.Inputs)
	}
	b.ReportMetric(n.ExactlyTwo*100, "%exactly-2")
	b.ReportMetric(float64(n.Max), "max-users")
	writeArtifact(b, "figure8.txt", n.Figure8().Render())
}

// BenchmarkFigure9OperatorBlocklistTypes regenerates Fig 9.
func BenchmarkFigure9OperatorBlocklistTypes(b *testing.B) {
	_, rep := study(b)
	responses := survey.StandardResponses(1)
	b.ResetTimer()
	var usage []survey.TypeUsage
	for i := 0; i < b.N; i++ {
		usage = survey.TypesAmongAffected(responses)
	}
	if len(usage) > 0 {
		b.ReportMetric(usage[len(usage)-1].Percent*100, "%top-type")
	}
	writeArtifact(b, "figure9.txt", rep.Figure9().Render())
}

// BenchmarkTable1SurveySummary regenerates Table 1.
func BenchmarkTable1SurveySummary(b *testing.B) {
	_, rep := study(b)
	responses := survey.StandardResponses(1)
	b.ResetTimer()
	var sum survey.Summary
	for i := 0; i < b.N; i++ {
		sum = survey.Summarize(responses)
	}
	b.ReportMetric(sum.ExternalPct*100, "%external")
	b.ReportMetric(sum.DirectBlockPct*100, "%direct-block")
	writeArtifact(b, "table1.txt", rep.Table1().Render())
}

// BenchmarkTable2BlocklistRegistry regenerates Table 2.
func BenchmarkTable2BlocklistRegistry(b *testing.B) {
	_, rep := study(b)
	b.ResetTimer()
	var counts []blocklist.MaintainerCount
	for i := 0; i < b.N; i++ {
		reg := blocklist.StandardRegistry()
		counts = reg.MaintainerCounts()
	}
	b.ReportMetric(float64(len(counts)), "maintainers")
	writeArtifact(b, "table2.txt", rep.Table2().Render())
}

// BenchmarkSection4CrawlStats measures a full (small-world) crawl: swarm
// construction plus the simulated crawl that yields the §4 statistics.
func BenchmarkSection4CrawlStats(b *testing.B) {
	_, rep := study(b)
	wp := blgen.DefaultParams(1)
	wp.Scale = 0.1
	w := blgen.Generate(wp)
	b.ResetTimer()
	var st core.Study
	_ = st
	for i := 0; i < b.N; i++ {
		s := core.NewStudyFromWorld(w, core.Config{Seed: int64(i + 1), CrawlDuration: 12 * time.Hour, SkipICMP: true})
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
	writeArtifact(b, "section4.txt", rep.CrawlStatsTable().Render())
}

// BenchmarkStudyMetricsSnapshot measures rendering the deterministic metric
// snapshot of the shared default study and writes it as a golden artifact:
// every count the instrumented pipeline records, byte-stable across runs and
// worker settings.
func BenchmarkStudyMetricsSnapshot(b *testing.B) {
	s, _ := study(b)
	b.ResetTimer()
	var text string
	for i := 0; i < b.N; i++ {
		text = s.Config.Obs.RenderText(false)
	}
	b.ReportMetric(float64(len(text)), "snapshot-bytes")
	writeArtifact(b, "metrics.txt", text)
}

// BenchmarkSection5TopListConcentration regenerates the §5 top-10
// concentration statistics.
func BenchmarkSection5TopListConcentration(b *testing.B) {
	s, _ := study(b)
	b.ResetTimer()
	var natShare, dynShare float64
	for i := 0; i < b.N; i++ {
		r := analysis.ComputePerListReuse(s.Inputs)
		natShare = r.Top10NATedShare
		dynShare = r.Top10DynamicShare
	}
	b.ReportMetric(natShare*100, "%top10-NATed")
	b.ReportMetric(dynShare*100, "%top10-dynamic")
	r := analysis.ComputePerListReuse(s.Inputs)
	content := fmt.Sprintf("top NATed feeds: %v\ntop dynamic feeds: %v\n",
		r.TopNATedFeeds, r.TopDynamicFeeds)
	writeArtifact(b, "section5.txt", content)
}
