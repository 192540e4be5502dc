// Ablations of the design choices DESIGN.md calls out: the bt_ping
// verification rule, the /24 expansion granularity, the knee threshold, the
// crawler's rate-limiting cool-down and its vantage count. Each renders the
// text of one bench_artifacts/ file listed in golden_test.go's table.
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

// ablationExpandBits sweeps the prefix length dynamic detections are
// expanded to (/20, /24, /28): how many prefixes each length yields and how
// many blocklisted addresses they cover (§3.2's boundary-estimation caveat).
func ablationExpandBits(tb testing.TB) string {
	s, _ := study(tb)
	blocked := s.World.Collection.AllAddrs().Sorted()
	var lines []string
	for _, bits := range []int{20, 24, 28} {
		res := ripeatlas.Detect(s.World.RIPELogs, ripeatlas.DetectOptions{ExpandBits: bits})
		count := 0
		for _, a := range blocked {
			if res.DynamicPrefixes.Covers(a) {
				count++
			}
		}
		lines = append(lines, fmt.Sprintf("/%d expansion: %d prefixes, %d blocklisted addrs covered",
			bits, res.DynamicPrefixes.Len(), count))
	}
	return strings.Join(lines, "\n") + "\n"
}

// ablationKnee compares the kneedle-derived allocation threshold against
// fixed thresholds 2/4/8/16. The threshold moves the frequent-probe stage
// of the funnel; the daily filter after it decides what is dynamic.
func ablationKnee(tb testing.TB) string {
	s, _ := study(tb)
	knee := ripeatlas.Detect(s.World.RIPELogs, ripeatlas.DetectOptions{})
	lines := []string{fmt.Sprintf("knee (=%d): %d frequent probes, %d daily probes, %d dynamic prefixes",
		knee.KneeThreshold, knee.FrequentProbes, knee.DailyProbes, knee.DynamicPrefixes.Len())}
	for _, min := range []int{2, 4, 8, 16} {
		res := ripeatlas.Detect(s.World.RIPELogs, ripeatlas.DetectOptions{MinAllocations: min})
		lines = append(lines, fmt.Sprintf("fixed %2d:   %d frequent probes, %d daily probes, %d dynamic prefixes",
			min, res.FrequentProbes, res.DailyProbes, res.DynamicPrefixes.Len()))
	}
	return strings.Join(lines, "\n") + "\n"
}

// ablationCooldown sweeps the crawler's per-IP cool-down around the
// 20-minute limit the paper added after overwhelming its own network: how
// much traffic each setting sends for how many detections.
func ablationCooldown(tb testing.TB) string {
	w := smallWorld()
	var lines []string
	for _, cd := range []time.Duration{5 * time.Minute, 20 * time.Minute, time.Hour} {
		st := runSmallCrawl(tb, w, core.SwarmConfig{Loss: 0.28, Seed: 1}, cd).Stats()
		lines = append(lines, fmt.Sprintf("cooldown %6s: %7d msgs sent, %4d NATed, %5d IPs",
			cd, st.MessagesSent, st.NATedIPs, st.UniqueIPs))
	}
	return strings.Join(lines, "\n") + "\n"
}

// ablationChurn sweeps the BitTorrent clients' restart rate and scores both
// NAT signals against ground truth: port/node-ID churn makes the naive
// signal (any IP ever seen with >1 port) flag addresses that are no NAT,
// while the bt_ping verified rule keeps its precision — the
// stale-information robustness claim of §3.1.
func ablationChurn(tb testing.TB) string {
	w := smallWorld()
	trueNAT := iputil.NewSet()
	for _, n := range w.NATs {
		trueNAT.Add(n.Addr)
	}
	falsePositives := func(addrs []iputil.Addr) int {
		n := 0
		for _, a := range addrs {
			if !trueNAT.Contains(a) {
				n++
			}
		}
		return n
	}
	var lines []string
	for _, rate := range []float64{0, 0.5, 2} {
		c := runSmallCrawl(tb, w, core.SwarmConfig{
			Loss: 0.28, Seed: 1, RestartsPerDay: rate, ChurnHorizon: 12 * time.Hour,
		}, 0)
		var verified []iputil.Addr
		for _, o := range c.NATed() {
			verified = append(verified, o.Addr)
		}
		st := c.Stats()
		lines = append(lines, fmt.Sprintf(
			"restarts/day %.1f: %4d multi-port IPs (%2d false positives), %4d verified NATed (%d false positives)",
			rate, st.MultiPortIPs, falsePositives(c.MultiPortAddrs().Sorted()), st.NATedIPs, falsePositives(verified)))
	}
	return strings.Join(lines, "\n") + "\n"
}

// ablationVantages sweeps the number of crawler vantage points — the
// coverage improvement §3.1 proposes. More vantages discover more of the
// swarm per unit time and split the reply burden across networks.
func ablationVantages(tb testing.TB) string {
	w := smallWorld()
	var lines []string
	for _, vantages := range []int{1, 2, 4} {
		s := core.NewStudyFromWorld(w, core.Config{
			Seed:          1,
			CrawlDuration: 6 * time.Hour,
			Vantages:      vantages,
			SkipICMP:      true,
		})
		if _, err := s.Run(); err != nil {
			tb.Fatal(err)
		}
		st := s.CrawlStats
		lines = append(lines, fmt.Sprintf(
			"vantages %d: %5d IPs observed, %4d NATed, %7d msgs (%.0f%% resp)",
			vantages, st.UniqueIPs, st.NATedIPs, st.MessagesSent, st.ResponseRate*100))
	}
	return strings.Join(lines, "\n") + "\n"
}

// smallWorld is the seed-1, scale-0.15 world the crawl ablations share.
func smallWorld() *blgen.World {
	wp := blgen.DefaultParams(1)
	wp.Scale = 0.15
	return blgen.Generate(wp)
}

// runSmallCrawl builds a swarm over w and crawls it for 12 simulated hours
// from one vantage; the crawler shares the swarm's seed.
func runSmallCrawl(tb testing.TB, w *blgen.World, sc core.SwarmConfig, cooldown time.Duration) *crawler.Crawler {
	tb.Helper()
	scope := w.BlocklistedSpace()
	swarm, err := core.BuildSwarm(w, sc, scope.Covers)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := swarm.StartCrawler(0, crawler.Config{Scope: scope.Covers, Cooldown: cooldown, Seed: sc.Seed})
	if err != nil {
		tb.Fatal(err)
	}
	swarm.RunFor(12 * time.Hour)
	c.Stop()
	return c
}
