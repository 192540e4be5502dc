// Ablation benchmarks for the design choices DESIGN.md calls out: the
// bt_ping verification rule, the /24 expansion granularity, the knee
// threshold, and the crawler's rate-limiting cool-down.
package reuseblock_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/core"
	"github.com/reuseblock/reuseblock/internal/crawler"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/ripeatlas"
)

// BenchmarkAblationPingVerification compares the naive multi-port NAT signal
// (any IP ever seen with >1 port) against the paper's bt_ping verification
// rule, scoring both against ground truth. The verification step is what
// keeps precision high: port changes and stale entries create multi-port
// sightings that are not NATs.
func BenchmarkAblationPingVerification(b *testing.B) {
	wp := blgen.DefaultParams(1)
	wp.Scale = 0.2
	w := blgen.Generate(wp)
	trueNAT := iputil.NewSet()
	for _, n := range w.NATs {
		if n.BTUsers >= 2 {
			trueNAT.Add(n.Addr)
		}
	}
	b.ResetTimer()
	var naiveFP, verifiedFP, naiveN, verifiedN int
	for i := 0; i < b.N; i++ {
		c := runSmallCrawl(b, w, core.SwarmConfig{Loss: 0.28, Seed: int64(i + 1)}, 20*time.Minute)
		naive := c.MultiPortAddrs()
		verified := iputil.NewSet()
		for _, o := range c.NATed() {
			verified.Add(o.Addr)
		}
		naiveFP, verifiedFP, naiveN, verifiedN = 0, 0, naive.Len(), verified.Len()
		for _, a := range naive.Sorted() {
			if !trueNAT.Contains(a) {
				naiveFP++
			}
		}
		for _, a := range verified.Sorted() {
			if !trueNAT.Contains(a) {
				verifiedFP++
			}
		}
	}
	b.ReportMetric(float64(naiveN), "naive-detections")
	b.ReportMetric(float64(naiveFP), "naive-false-pos")
	b.ReportMetric(float64(verifiedN), "verified-detections")
	b.ReportMetric(float64(verifiedFP), "verified-false-pos")
}

// BenchmarkAblationExpandBits sweeps the prefix length dynamic detections
// are expanded to (/20, /24, /28): coarser expansion overcounts reuse,
// finer undercounts it (§3.2's boundary-estimation caveat).
func BenchmarkAblationExpandBits(b *testing.B) {
	s, _ := study(b)
	blocked := s.World.Collection.AllAddrs()
	var lines []string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lines = lines[:0]
		for _, bits := range []int{20, 24, 28} {
			res := ripeatlas.Detect(s.World.RIPELogs, ripeatlas.DetectOptions{ExpandBits: bits})
			count := 0
			for _, a := range blocked.Sorted() {
				if res.DynamicPrefixes.Covers(a) {
					count++
				}
			}
			lines = append(lines, fmt.Sprintf("/%d expansion: %d prefixes, %d blocklisted addrs covered",
				bits, res.DynamicPrefixes.Len(), count))
			if bits == 24 {
				b.ReportMetric(float64(count), "dyn-blocklisted-at-24")
			}
		}
	}
	writeArtifact(b, "ablation_expandbits.txt", strings.Join(lines, "\n")+"\n")
}

// BenchmarkAblationKneeThreshold compares the kneedle-derived allocation
// threshold against fixed thresholds 2/4/8/16: low thresholds admit slow
// churners (overcounting dynamic space), high ones miss real pools.
func BenchmarkAblationKneeThreshold(b *testing.B) {
	s, _ := study(b)
	var lines []string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lines = lines[:0]
		knee := ripeatlas.Detect(s.World.RIPELogs, ripeatlas.DetectOptions{})
		lines = append(lines, fmt.Sprintf("knee (=%d): %d daily probes, %d dynamic prefixes",
			knee.KneeThreshold, knee.DailyProbes, knee.DynamicPrefixes.Len()))
		for _, min := range []int{2, 4, 8, 16} {
			res := ripeatlas.Detect(s.World.RIPELogs, ripeatlas.DetectOptions{MinAllocations: min})
			lines = append(lines, fmt.Sprintf("fixed %2d:   %d daily probes, %d dynamic prefixes",
				min, res.DailyProbes, res.DynamicPrefixes.Len()))
		}
		b.ReportMetric(float64(knee.KneeThreshold), "knee")
	}
	writeArtifact(b, "ablation_knee.txt", strings.Join(lines, "\n")+"\n")
}

// BenchmarkAblationCooldown sweeps the crawler's per-IP cool-down: shorter
// cool-downs send far more traffic for the same detections — the paper
// added the 20-minute limit after overwhelming its own network.
func BenchmarkAblationCooldown(b *testing.B) {
	wp := blgen.DefaultParams(1)
	wp.Scale = 0.15
	w := blgen.Generate(wp)
	var lines []string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lines = lines[:0]
		for _, cd := range []time.Duration{5 * time.Minute, 20 * time.Minute, time.Hour} {
			c := runSmallCrawl(b, w, core.SwarmConfig{Loss: 0.28, Seed: 1}, cd)
			st := c.Stats()
			lines = append(lines, fmt.Sprintf("cooldown %6s: %7d msgs sent, %4d NATed, %5d IPs",
				cd, st.MessagesSent, st.NATedIPs, st.UniqueIPs))
			if cd == 20*time.Minute {
				b.ReportMetric(float64(st.MessagesSent), "msgs-at-20m")
			}
		}
	}
	writeArtifact(b, "ablation_cooldown.txt", strings.Join(lines, "\n")+"\n")
}

// runSmallCrawl builds a swarm over w and crawls it for 12 simulated hours
// from one vantage; the crawler shares the swarm's seed.
func runSmallCrawl(b *testing.B, w *blgen.World, sc core.SwarmConfig, cooldown time.Duration) *crawler.Crawler {
	b.Helper()
	scope := w.BlocklistedSpace()
	swarm, err := core.BuildSwarm(w, sc, scope.Covers)
	if err != nil {
		b.Fatal(err)
	}
	c, err := swarm.StartCrawler(0, crawler.Config{Scope: scope.Covers, Cooldown: cooldown, Seed: sc.Seed})
	if err != nil {
		b.Fatal(err)
	}
	swarm.RunFor(12 * time.Hour)
	c.Stop()
	return c
}

// BenchmarkAblationChurn sweeps the BitTorrent clients' restart rate:
// port/node-ID churn inflates the naive multi-port signal but the verified
// rule's precision holds — the stale-information robustness claim of §3.1.
func BenchmarkAblationChurn(b *testing.B) {
	wp := blgen.DefaultParams(1)
	wp.Scale = 0.15
	w := blgen.Generate(wp)
	trueNAT := iputil.NewSet()
	for _, n := range w.NATs {
		trueNAT.Add(n.Addr)
	}
	var lines []string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lines = lines[:0]
		for _, rate := range []float64{0, 0.5, 2} {
			c := runSmallCrawl(b, w, core.SwarmConfig{
				Loss: 0.28, Seed: 1, RestartsPerDay: rate, ChurnHorizon: 12 * time.Hour,
			}, 0)
			falsePos := 0
			for _, o := range c.NATed() {
				if !trueNAT.Contains(o.Addr) {
					falsePos++
				}
			}
			st := c.Stats()
			lines = append(lines, fmt.Sprintf(
				"restarts/day %.1f: %4d multi-port IPs, %4d verified NATed, %d false positives",
				rate, st.MultiPortIPs, st.NATedIPs, falsePos))
			if rate == 2 {
				b.ReportMetric(float64(falsePos), "false-pos-at-heavy-churn")
				b.ReportMetric(float64(st.MultiPortIPs-st.NATedIPs), "naive-excess")
			}
		}
	}
	writeArtifact(b, "ablation_churn.txt", strings.Join(lines, "\n")+"\n")
}

// BenchmarkAblationVantages sweeps the number of crawler vantage points —
// the coverage improvement §3.1 proposes. More vantages discover more of
// the swarm per unit time and split the reply burden across networks.
func BenchmarkAblationVantages(b *testing.B) {
	wp := blgen.DefaultParams(1)
	wp.Scale = 0.15
	w := blgen.Generate(wp)
	var lines []string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lines = lines[:0]
		for _, vantages := range []int{1, 2, 4} {
			s := core.NewStudyFromWorld(w, core.Config{
				Seed:          1,
				CrawlDuration: 6 * time.Hour,
				Vantages:      vantages,
				SkipICMP:      true,
			})
			if _, err := s.Run(); err != nil {
				b.Fatal(err)
			}
			st := s.CrawlStats
			lines = append(lines, fmt.Sprintf(
				"vantages %d: %5d IPs observed, %4d NATed, %7d msgs (%.0f%% resp)",
				vantages, st.UniqueIPs, st.NATedIPs, st.MessagesSent, st.ResponseRate*100))
			if vantages == 4 {
				b.ReportMetric(float64(st.UniqueIPs), "ips-at-4-vantages")
			}
		}
	}
	writeArtifact(b, "ablation_vantages.txt", strings.Join(lines, "\n")+"\n")
}
