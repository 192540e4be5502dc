package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/faults"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

// smallStudy runs a fast end-to-end study for tests.
func smallStudy(t *testing.T, seed int64) (*Study, *Report) {
	t.Helper()
	wp := blgen.TestParams(seed)
	wp.Scale = 0.15
	s := NewStudy(Config{
		Seed:            seed,
		World:           &wp,
		CrawlDuration:   6 * time.Hour,
		SurveyBlockFrac: 0.1,
		SurveyDuration:  3 * 24 * time.Hour,
	})
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return s, rep
}

func TestStudyEndToEnd(t *testing.T) {
	s, rep := smallStudy(t, 1)
	if s.CrawlStats.UniqueIPs == 0 {
		t.Error("crawl observed no IPs")
	}
	if s.CrawlStats.ResponseRate <= 0 || s.CrawlStats.ResponseRate >= 1 {
		t.Errorf("response rate = %v", s.CrawlStats.ResponseRate)
	}
	if s.RIPE.TotalProbes == 0 {
		t.Error("no RIPE probes")
	}
	if s.Cai == nil || len(s.Cai.Blocks) == 0 {
		t.Error("no ICMP survey blocks")
	}
	if s.Survey.Respondents != 65 {
		t.Errorf("survey respondents = %d", s.Survey.Respondents)
	}
	if rep.PerList == nil || rep.Durations == nil || rep.NATUsers == nil ||
		rep.Overlap == nil || rep.Funnel == nil {
		t.Fatal("report missing sections")
	}
}

func TestStudyNATDetectionSound(t *testing.T) {
	s, rep := smallStudy(t, 2)
	// Every detected NATed address must truly be a multi-user gateway.
	for _, o := range s.NATed {
		truth, ok := s.World.NATByIP[o.Addr]
		if !ok {
			t.Errorf("false positive NAT %v", o.Addr)
			continue
		}
		if o.Users > truth.BTUsers {
			t.Errorf("NAT %v: lower bound %d exceeds truth %d", o.Addr, o.Users, truth.BTUsers)
		}
		if o.Users < 2 {
			t.Errorf("NAT %v: user bound %d < 2", o.Addr, o.Users)
		}
	}
	if rep.NATScore.Precision < 0.9 {
		t.Errorf("NAT precision = %v", rep.NATScore.Precision)
	}
}

func TestStudyRIPESound(t *testing.T) {
	s, rep := smallStudy(t, 3)
	// Detected dynamic prefixes are true dynamic pools.
	for _, p := range s.RIPE.DynamicPrefixes.Sorted() {
		if !s.World.TrueAnyDynamic.Contains(p) {
			t.Errorf("false positive dynamic prefix %v", p)
		}
	}
	if rep.RIPEScore.Precision < 0.99 && s.RIPE.DynamicPrefixes.Len() > 0 {
		t.Errorf("RIPE precision = %v", rep.RIPEScore.Precision)
	}
}

func TestReportRenderComplete(t *testing.T) {
	_, rep := smallStudy(t, 4)
	out := rep.Render()
	for _, want := range []string{
		"Section 4: crawl statistics",
		"Figure 2:", "Figure 3:", "Figure 4:", "Figure 5:",
		"Figure 6:", "Figure 7:", "Figure 8:", "Figure 9:",
		"Table 1:", "Table 2:",
		"Headline results", "Ground truth scores",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestReusedListWritten(t *testing.T) {
	_, rep := smallStudy(t, 5)
	var sb strings.Builder
	if err := rep.WriteReusedList(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "#") {
		t.Error("reused list missing header")
	}
	lines := strings.Count(sb.String(), "\n")
	if lines != rep.ReusedAddrs.Len()+1 {
		t.Errorf("list lines = %d, addrs = %d", lines, rep.ReusedAddrs.Len())
	}
}

func TestStudyDeterministic(t *testing.T) {
	s1, r1 := smallStudy(t, 7)
	s2, r2 := smallStudy(t, 7)
	if s1.CrawlStats != s2.CrawlStats {
		t.Errorf("crawl stats differ:\n%+v\n%+v", s1.CrawlStats, s2.CrawlStats)
	}
	if r1.PerList.NATedListings != r2.PerList.NATedListings ||
		r1.PerList.DynamicListings != r2.PerList.DynamicListings {
		t.Error("listings differ between identical runs")
	}
	if r1.ReusedAddrs.Len() != r2.ReusedAddrs.Len() {
		t.Error("reused lists differ")
	}
}

func TestSkipStages(t *testing.T) {
	wp := blgen.TestParams(8)
	s := NewStudy(Config{Seed: 8, World: &wp, SkipCrawl: true, SkipICMP: true})
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s.CrawlStats.MessagesSent != 0 {
		t.Error("crawl ran despite SkipCrawl")
	}
	if s.Cai != nil {
		t.Error("ICMP ran despite SkipICMP")
	}
	if rep.PerList.NATedListings != 0 {
		t.Error("NAT listings without a crawl")
	}
	// Dynamic detection must still work.
	if s.RIPE == nil {
		t.Error("RIPE stage skipped unexpectedly")
	}
}

func TestBuildSwarmInvariants(t *testing.T) {
	w := blgen.Generate(blgen.TestParams(9))
	swarm, err := BuildSwarm(w, SwarmConfig{Seed: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(swarm.Nodes) != len(w.BTUsers) {
		t.Errorf("nodes = %d, users = %d", len(swarm.Nodes), len(w.BTUsers))
	}
	natCount := 0
	for _, u := range w.BTUsers {
		if u.BehindNAT {
			natCount++
		}
	}
	if natCount > 0 && len(swarm.NATs) == 0 {
		t.Error("no NAT gateways instantiated")
	}
	// Every node learned at least one neighbour.
	for i, n := range swarm.Nodes {
		if n.TableSize() == 0 {
			t.Errorf("node %d has empty table", i)
		}
	}
	// The mapping-opening pings are queued; run them.
	swarm.RunFor(time.Minute)
	for addr, nat := range swarm.NATs {
		truth := w.NATByIP[addr]
		if truth.BTUsers > 0 && nat.ActiveMappings() == 0 {
			t.Errorf("NAT %v: no mappings after opening pings", addr)
		}
	}
}

func TestSampleBlocks(t *testing.T) {
	wp := blgen.TestParams(10)
	s := NewStudy(Config{Seed: 10, World: &wp, SurveyBlockFrac: 0.5})
	blocks := s.sampleBlocks()
	total := 0
	for _, a := range s.World.ASes {
		total += len(a.Prefixes)
	}
	if len(blocks) < total/3 || len(blocks) > total*2/3+1 {
		t.Errorf("sampled %d of %d blocks at frac 0.5", len(blocks), total)
	}
	seen := map[iputil.Prefix]bool{}
	for _, b := range blocks {
		if seen[b] {
			t.Fatal("duplicate sampled block")
		}
		seen[b] = true
	}
}

func TestChurnDoesNotBreakPrecision(t *testing.T) {
	wp := blgen.TestParams(12)
	wp.Scale = 0.15
	s := NewStudy(Config{
		Seed:           12,
		World:          &wp,
		CrawlDuration:  12 * time.Hour,
		RestartsPerDay: 2, // aggressive churn
		SkipICMP:       true,
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, o := range s.NATed {
		if _, ok := s.World.NATByIP[o.Addr]; !ok {
			t.Errorf("churn produced false positive NAT %v", o.Addr)
		}
	}
	// Churn must have left traces: multi-port IPs beyond the NATs.
	if s.CrawlStats.MultiPortIPs <= s.CrawlStats.NATedIPs {
		t.Logf("multi-port %d vs NATed %d (churn may not have hit crawled IPs in a tiny world)",
			s.CrawlStats.MultiPortIPs, s.CrawlStats.NATedIPs)
	}
}

func TestChurnDisabled(t *testing.T) {
	wp := blgen.TestParams(13)
	s := NewStudy(Config{Seed: 13, World: &wp, RestartsPerDay: -1, SkipCrawl: true, SkipICMP: true})
	if s.Config.RestartsPerDay != 0 {
		t.Errorf("RestartsPerDay = %v, want 0 after negative", s.Config.RestartsPerDay)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSwarmFootprint bounds the live heap a default swarm holds per
// BitTorrent host of the benchmark's world (seed 1, scale 1), measured after
// GC with the world kept live. Each node's generator sits inside the node,
// so the arena slot, the routing table and the socket are what is left.
func TestSwarmFootprint(t *testing.T) {
	const maxBytesPerHost = 1250 // reads 1,122
	wp := blgen.DefaultParams(1)
	wp.Scale = 1
	w := blgen.Generate(wp)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := BuildSwarm(w, SwarmConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)
	runtime.KeepAlive(s)
	perHost := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(w.BTUsers))
	t.Logf("%d hosts, %.0f B/host", len(w.BTUsers), perHost)
	if perHost > maxBytesPerHost {
		t.Errorf("swarm holds %.0f B per host, want at most %d", perHost, maxBytesPerHost)
	}
}

// TestBuildSwarmSharded covers the sharded construction path and the Swarm
// dispatch helpers: the group fabric advances in lockstep, carries traffic,
// and takes fault scenarios like a one-shard fabric does.
func TestBuildSwarmSharded(t *testing.T) {
	wp := blgen.TestParams(9)
	wp.Scale = 0.05
	w := blgen.Generate(wp)

	s, err := BuildSwarm(w, SwarmConfig{Seed: 1, Shards: 3, ShardWorkers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s.Group.Shards()); n != 3 {
		t.Fatalf("swarm fabric has %d shards, want 3", n)
	}
	start := s.Now()
	s.RunFor(time.Minute)
	if got := s.Now().Sub(start); got != time.Minute {
		t.Errorf("RunFor advanced %v, want 1m", got)
	}
	st := s.NetStats()
	if st.Sent == 0 || st.Delivered == 0 {
		t.Errorf("sharded fabric carried no traffic: %+v", st)
	}
	// The crawler's vantage address must get a shard-local clock and socket.
	vantage := iputil.AddrFrom4(198, 18, 0, 1)
	if s.ClockAt(vantage) != s.Group.ShardFor(vantage).Clock {
		t.Fatal("ClockAt is not the clock of the shard owning the address")
	}
	sock, err := s.Listen(netsim.Endpoint{Addr: vantage, Port: 6881})
	if err != nil {
		t.Fatal(err)
	}
	if ep, ok := sock.PublicEndpoint(); !ok || ep.Addr != vantage {
		t.Errorf("vantage endpoint = %v, %v", ep, ok)
	}

	scn, err := faults.Lookup("hostile")
	if err != nil {
		t.Fatal(err)
	}
	f, err := BuildSwarm(w, SwarmConfig{Seed: 1, Shards: 2, ShardWorkers: 2, Faults: scn}, nil)
	if err != nil {
		t.Fatalf("sharded swarm under faults: %v", err)
	}
	f.RunFor(2 * time.Hour)
	if f.Injector.Stats().Total() == 0 {
		t.Error("sharded swarm under the hostile scenario injected no faults")
	}

	// Shards 0 means one shard per shard worker; an explicit count wins.
	for _, tc := range []struct {
		shards, workers, want int
	}{
		{0, 3, 3},
		{0, 0, 1},
		{2, 4, 2},
	} {
		d, err := BuildSwarm(w, SwarmConfig{Seed: 1, Shards: tc.shards, ShardWorkers: tc.workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(d.Group.Shards()); n != tc.want {
			t.Errorf("Shards %d, ShardWorkers %d: %d shards, want %d", tc.shards, tc.workers, n, tc.want)
		}
	}
}

// TestSwarmShardedRestartsRace churns a sharded swarm hard enough that
// restarts on different shards fire inside the same window on different
// goroutines. Run under -race: restarted nodes must be allocated without
// sharing an arena across shards.
func TestSwarmShardedRestartsRace(t *testing.T) {
	wp := blgen.DefaultParams(1)
	wp.Scale = 0.2
	w := blgen.Generate(wp)
	s, err := BuildSwarm(w, SwarmConfig{Seed: 1, Shards: 4, ShardWorkers: 4,
		RestartsPerDay: 500, ChurnHorizon: 2 * time.Hour}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(2 * time.Hour)
	moved := 0
	for i, u := range w.BTUsers {
		if !u.BehindNAT && s.Endpoints[i].Port != u.Port {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no public client restarted")
	}
	if s.Endpoints[indexOf(t, s, s.Bootstrap)] != s.Bootstrap {
		t.Fatal("the bootstrap node churned")
	}
}

// indexOf returns the index of the user bound at ep when the swarm was
// built.
func indexOf(t *testing.T, s *Swarm, ep netsim.Endpoint) int {
	t.Helper()
	for i, e := range s.Endpoints {
		if e == ep {
			return i
		}
	}
	t.Fatalf("no user at %s", ep)
	return -1
}

// TestCrawlWithoutRepliesFails closes the bootstrap node's socket before
// the crawl: the vantage hears nothing, so the study must fail with an
// error and a "failed" degradation row rather than succeed with an empty
// NATed list.
func TestCrawlWithoutRepliesFails(t *testing.T) {
	wp := blgen.TestParams(9)
	st := NewStudy(Config{Seed: 9, World: &wp, CrawlDuration: time.Hour, Workers: 1})
	swarm, err := BuildSwarm(st.World, SwarmConfig{Seed: 9, ChurnHorizon: time.Hour}, nil)
	if err != nil {
		t.Fatal(err)
	}
	swarm.Nodes[indexOf(t, swarm, swarm.Bootstrap)].Close()
	run := st.crawlVantage(0, swarm, nil, nil)
	if run.err == nil {
		t.Fatalf("crawl with a dead bootstrap succeeded: %+v", run.stats)
	}
	if err := st.mergeVantages([]vantageRun{run}, map[iputil.Addr]int{}); err == nil {
		t.Fatal("a study whose only vantage heard nothing did not fail")
	}
	if len(st.NATed) != 0 {
		t.Fatalf("failed crawl produced %d NATed addresses", len(st.NATed))
	}
	d := st.buildDegradation()
	if d == nil || len(d.Stages) != 1 || d.Stages[0].Status != "failed" || d.Stages[0].Stage != "crawl vantage 0" {
		t.Fatalf("degradation report = %+v, want one failed crawl vantage", d)
	}
}
