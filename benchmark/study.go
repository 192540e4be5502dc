package main

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"time"

	"github.com/reuseblock/reuseblock/internal/analysis"
	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/core"
	"github.com/reuseblock/reuseblock/internal/crawler"
	"github.com/reuseblock/reuseblock/internal/dht"
	"github.com/reuseblock/reuseblock/internal/icmpsurvey"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/netsim"
	"github.com/reuseblock/reuseblock/internal/parallel"
	"github.com/reuseblock/reuseblock/internal/ripeatlas"
	"github.com/reuseblock/reuseblock/internal/survey"
	"github.com/reuseblock/reuseblock/internal/testkit"
)

// studyParams shapes one study workload.
type studyParams struct {
	Scale    float64
	Shards   int
	Compact  bool
	Crawl    time.Duration
	SkipICMP bool
}

var (
	// studyDefault is the path blreport and the goldens use.
	studyDefault = studyParams{Scale: 1, Crawl: 12 * time.Hour}
	// studyScale is where world generation and swarm build weigh most, on
	// the sharded compact fabric the default study bypasses.
	studyScale = studyParams{Scale: 4, Shards: 4, Compact: true, Crawl: 3 * time.Hour, SkipICMP: true}
)

// worldSeed pins the generated world. Its size swings by half between seeds
// (8.4K to 13K BitTorrent hosts at scale 1), which would swamp every timing,
// so the run's seed drives the study instead: swarm construction, network
// loss and jitter, client churn, the crawler and the survey draws.
const worldSeed = 1

// studySeeds are the study seeds a run's seed selects from: 1 to 40, each
// checked on the study workload to confirm NATed addresses, except 19, whose
// crawl never starts (the bootstrap node answers none of its queries, so the
// study confirms nothing and the run would fail its gate).
var studySeeds = slices.DeleteFunc(func() []int64 {
	s := make([]int64, 40)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}(), func(s int64) bool { return s == 19 })

// studySeed maps a run's seed onto studySeeds; the same seed always gives
// the same study.
func studySeed(seed int64) int64 {
	n := int64(len(studySeeds))
	return studySeeds[(seed%n+n)%n]
}

func (p studyParams) describe(seed int64) map[string]any {
	return map[string]any{"scale": p.Scale, "shards": p.Shards, "compact": p.Compact,
		"crawl": p.Crawl.String(), "skip_icmp": p.SkipICMP, "vantages": 1, "world_seed": worldSeed,
		"study_seed": studySeed(seed)}
}

func (p studyParams) world() blgen.Params {
	wp := blgen.DefaultParams(worldSeed)
	wp.Scale = p.Scale
	wp.Workers = runtime.GOMAXPROCS(0)
	return wp
}

// config is the study a run's seed selects.
func (p studyParams) config(seed int64) core.Config {
	return core.Config{Seed: studySeed(seed), CrawlDuration: p.Crawl, Shards: p.Shards, Compact: p.Compact,
		SkipICMP: p.SkipICMP, Workers: runtime.GOMAXPROCS(0)}
}

// minStudies is the fewest studies a run measures, untraced or traced, so
// that the slowest of them (tail_ms) is a different sample from the median.
const minStudies = 3

// runStudy measures a closed batch of studies, one at a time, over one
// generated world.
func runStudy(p studyParams, cfg runConfig) (*outcome, error) {
	if cfg.traced {
		return traceStudy(p, cfg)
	}
	o := &outcome{}
	var w *blgen.World
	setups, _ := repeatSetup(func() (time.Duration, error) {
		w = nil
		runtime.GC()
		t0 := time.Now()
		w = blgen.Generate(p.world())
		return time.Since(t0), nil
	})
	o.add("setup_s", "s", median(setups), len(setups))
	restartPeakRSS()

	var walls, cpus []float64
	var first string
	start := time.Now()
	for len(walls) < minStudies || time.Since(start) < cfg.seconds {
		runtime.GC()
		c0, t0 := cpuSeconds(), time.Now()
		st := core.NewStudyFromWorld(w, p.config(cfg.seed))
		rep, err := st.Run()
		if err != nil {
			o.gate("study", err)
			return o, fmt.Errorf("study: %w", err)
		}
		text := rep.Render()
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, cpuSeconds()-c0)
		err = checkStudy(w, st, rep)
		if first == "" {
			first = text
		} else if text != first {
			err = errors.Join(err, errors.New("report differs from the run's first study"))
		}
		o.gate("study", err)
	}
	wall := median(walls)
	o.add("study_s", "s", wall, len(walls))
	o.add("p50_ms", "ms", wall*1000, len(walls))
	o.add("tail_ms", "ms", slices.Max(walls)*1000, len(walls))
	o.add("throughput_per_s", "1/s", hostsPerCPUSecond(len(w.BTUsers), cpus), len(cpus))
	o.add("cpu_s", "s", median(cpus), len(cpus))
	return o, nil
}

// hostsPerCPUSecond is the study workloads' throughput: BitTorrent hosts
// studied per second of process CPU, over all of a run's studies. It moves
// with cpu_s rather than with the wall time p50_ms and tail_ms share.
func hostsPerCPUSecond(hosts int, cpus []float64) float64 {
	var sum float64
	for _, c := range cpus {
		sum += c
	}
	return float64(hosts*len(cpus)) / sum
}

// checkStudy is the study workloads' correctness gate: the detectors hold
// their ground-truth oracles and the crawl confirmed at least one NATed
// address.
func checkStudy(w *blgen.World, st *core.Study, rep *core.Report) error {
	orc := testkit.Oracle{World: w}
	var none error
	if len(st.NATed) == 0 {
		none = errors.New("no NATed address confirmed")
	}
	return errors.Join(orc.CheckNATObservations(st.NATed), orc.CheckDynamicDetection(st.RIPE),
		orc.CheckScores(rep), none)
}

// replayOut is what a traced replay produced, kept for comparison with the
// untraced study of the same seed.
type replayOut struct {
	nated   []crawler.NATObservation
	stats   crawler.Stats
	net     netsim.Stats
	dynamic []iputil.Prefix
	probes  int64
	figures []string
}

// traceStudy replays the study one public call at a time under spans, then
// runs the untraced study of the same seed, checks that every replay
// produced the same results, and reports per-layer metrics and the tracing
// overhead. Both halves run minStudies studies over one world; per-layer
// times are medians over the replays.
func traceStudy(p studyParams, cfg runConfig) (*outcome, error) {
	o := &outcome{}
	tr := newTracer(runID(cfg.workload, cfg.seed))

	// Traced replays.
	rssReset := restartPeakRSS()
	rt0 := readRuntime()
	heap := watchHeap()
	var w *blgen.World
	genDur := tr.do(0, "blgen.Generate", func(int64) { w = blgen.Generate(p.world()) })
	genAlloc := readRuntime().allocs - rt0.allocs
	var replays []*replayOut
	var replayWalls, replayCPUs []float64
	for i := 0; i < minStudies; i++ {
		runtime.GC()
		root, endRoot := tr.begin(0, fmt.Sprintf("replay %s #%d", cfg.workload, i+1))
		c0, t0 := cpuSeconds(), time.Now()
		rp, err := replayStudy(tr, root, w, p.config(cfg.seed))
		replayWalls = append(replayWalls, time.Since(t0).Seconds())
		replayCPUs = append(replayCPUs, cpuSeconds()-c0)
		endRoot()
		if err != nil {
			o.gate("replay", err)
			return o, fmt.Errorf("replay: %w", err)
		}
		replays = append(replays, rp)
	}
	replayRSS := peakRSSMB()
	addRuntime(o, rt0, readRuntime(), heap.peakMB())
	bytesPerHost, err := swarmFootprint(tr, w, p.config(cfg.seed))
	if err != nil {
		return o, fmt.Errorf("swarm footprint: %w", err)
	}
	hosts := len(w.BTUsers)
	w = nil

	// Untraced reference of the same seed. The first study is held against
	// every replay; the others must render the same report.
	rssReset = restartPeakRSS() && rssReset
	t0 := time.Now()
	w = blgen.Generate(p.world())
	setupUntraced := time.Since(t0).Seconds()
	var refWalls, refCPUs []float64
	var first string
	for i := 0; i < minStudies; i++ {
		runtime.GC()
		c0, t0 := cpuSeconds(), time.Now()
		st := core.NewStudyFromWorld(w, p.config(cfg.seed))
		rep, err := st.Run()
		refWalls = append(refWalls, time.Since(t0).Seconds())
		refCPUs = append(refCPUs, cpuSeconds()-c0)
		if err != nil {
			o.gate("study", err)
			return o, fmt.Errorf("study: %w", err)
		}
		var text string
		tr.do(0, "core.Report.Render", func(int64) { text = rep.Render() })
		err = checkStudy(w, st, rep)
		switch {
		case text == "":
			err = errors.Join(err, errors.New("empty report"))
		case i == 0:
			first = text
			for j, rp := range replays {
				o.gate(fmt.Sprintf("replay #%d equivalence", j+1), sameStudy(rp, st, rep))
			}
		case text != first:
			err = errors.Join(err, errors.New("report differs from the run's first study"))
		}
		o.gate("study", err)
	}
	refRSS := peakRSSMB()
	rp := replays[0]

	o.add("blgen.generate_s", "s", genDur.Seconds(), 1)
	o.add("blgen.alloc_mb", "MB", float64(genAlloc)/(1<<20), 1)
	build, n := tr.median("core.BuildSwarm")
	o.add("core.build_swarm_s", "s", build.Seconds(), n)
	o.add("core.swarm_bytes_per_host", "B", bytesPerHost, hosts)
	crawl, n := tr.median("crawler.crawl")
	o.add("crawler.crawl_s", "s", crawl.Seconds(), n)
	if rp.net.Sent > 0 {
		o.add("netsim.ns_per_datagram", "ns", float64(crawl.Nanoseconds())/float64(rp.net.Sent), int(rp.net.Sent))
	}
	o.add("netsim.datagrams", "count", float64(rp.net.Sent), 1)
	o.add("netsim.delivered", "count", float64(rp.net.Delivered), 1)
	o.add("netsim.dropped", "count", float64(rp.net.Dropped), 1)
	o.add("netsim.no_route", "count", float64(rp.net.NoRoute), 1)
	o.add("crawler.queries", "count", float64(rp.stats.MessagesSent), 1)
	o.add("crawler.replies", "count", float64(rp.stats.MessagesReceived), 1)
	if rp.stats.MessagesSent > 0 {
		o.add("crawler.response_rate", "ratio", float64(rp.stats.MessagesReceived)/float64(rp.stats.MessagesSent), 1)
	}
	o.add("crawler.unique_ips", "count", float64(rp.stats.UniqueIPs), 1)
	o.add("crawler.nated", "count", float64(len(rp.nated)), 1)
	detect, n := tr.median("ripeatlas.Detect")
	o.add("ripeatlas.detect_s", "s", detect.Seconds(), n)
	if !p.SkipICMP {
		icmp, n := tr.median("icmpsurvey.Run")
		o.add("icmpsurvey.run_s", "s", icmp.Seconds(), n)
		o.add("icmpsurvey.probes", "count", float64(rp.probes), 1)
	}
	join, n := tr.median("analysis.join")
	o.add("analysis.join_s", "s", join.Seconds(), n)
	render, n := tr.median("core.Report.Render")
	o.add("core.render_s", "s", render.Seconds(), n)

	o.add("trace.overhead.setup_s", "%", overhead(genDur.Seconds(), setupUntraced), 1)
	o.add("trace.overhead.p50_ms", "%", overhead(median(replayWalls), median(refWalls)), minStudies)
	o.add("trace.overhead.tail_ms", "%", overhead(slices.Max(replayWalls), slices.Max(refWalls)), minStudies)
	o.add("trace.overhead.throughput_per_s", "%",
		rateOverhead(hostsPerCPUSecond(hosts, replayCPUs), hostsPerCPUSecond(hosts, refCPUs)), minStudies)
	o.add("trace.overhead.cpu_s", "%", overhead(median(replayCPUs), median(refCPUs)), minStudies)
	if !rssReset {
		return o, errRSSReset
	}
	o.add("trace.overhead.peak_rss_mb", "%", overhead(replayRSS, refRSS), 1)
	o.add("trace.spans", "count", float64(tr.count()), 1)
	if err := tr.write(cfg.spans); err != nil {
		return o, fmt.Errorf("write spans: %w", err)
	}
	return o, nil
}

// replayStudy performs Study.Run's calls itself, each under a span: the
// four independent stages side by side as Run schedules them, then the
// analysis joins. It mirrors Run's single-vantage configuration, so a
// change to how Run wires the layers shows up as a failed equivalence.
func replayStudy(tr *tracer, root int64, w *blgen.World, cfg core.Config) (*replayOut, error) {
	def := core.NewStudyFromWorld(w, cfg).Config // with Run's defaults applied
	out := &replayOut{}
	var crawlErr error
	var btObserved *iputil.Set
	var ripe *ripeatlas.Result
	var cai *icmpsurvey.Result
	parallel.Do(def.Workers,
		func() { btObserved, crawlErr = replayCrawl(tr, root, w, def, out) },
		func() {
			tr.do(root, "ripeatlas.Detect", func(int64) {
				ripe = ripeatlas.Detect(w.RIPELogs, ripeatlas.DetectOptions{})
			})
		},
		func() {
			if def.SkipICMP {
				return
			}
			tr.do(root, "icmpsurvey.Run", func(int64) {
				cai = icmpsurvey.Run(w, icmpsurvey.Config{
					Blocks:   sampleBlocks(w, def.SurveyBlockFrac),
					Start:    w.RIPEStart,
					Duration: def.SurveyDuration,
					Interval: def.SurveyInterval,
					Workers:  def.Workers,
				})
			})
		},
		func() {
			tr.do(root, "survey", func(int64) {
				responses := survey.StandardResponses(def.Seed)
				survey.Summarize(responses)
				survey.TypesAmongAffected(responses)
			})
		},
	)
	if crawlErr != nil {
		return nil, crawlErr
	}
	out.dynamic = ripe.DynamicPrefixes.Sorted()
	if cai != nil {
		out.probes = cai.ProbesSent
	}

	natUsers := make(map[iputil.Addr]int, len(out.nated))
	for _, ob := range out.nated {
		natUsers[ob.Addr] = ob.Users
	}
	in := &analysis.Inputs{
		Collection:      w.Collection,
		NATUsers:        natUsers,
		BTObserved:      btObserved,
		DynamicPrefixes: ripe.DynamicPrefixes,
		RIPEPrefixes:    ripe.RIPEPrefixes,
		Workers:         def.Workers,
		ASNOf: func(a iputil.Addr) (int, bool) {
			pi, ok := w.PrefixOf(a)
			if !ok {
				return 0, false
			}
			return pi.ASN, true
		},
	}
	if cai != nil {
		in.CaiBlocks = cai.DynamicBlocks
	}
	var (
		perList   *analysis.PerListReuse
		durations *analysis.Durations
		natUsersR *analysis.NATUsers
		overlap   *analysis.ASOverlap
		funnel    *analysis.Funnel
	)
	stages := analysis.RIPEStages{
		SameAS:   ripe.SameASAddresses.Slash24s(),
		Frequent: ripe.FrequentAddresses.Slash24s(),
		Daily:    ripe.DynamicPrefixes,
	}
	join, endJoin := tr.begin(root, "analysis.join")
	parallel.Do(def.Workers,
		func() {
			tr.do(join, "analysis.ComputePerListReuse", func(int64) { perList = analysis.ComputePerListReuse(in) })
		},
		func() {
			tr.do(join, "analysis.ComputeDurations", func(int64) { durations = analysis.ComputeDurations(in) })
		},
		func() {
			tr.do(join, "analysis.ComputeNATUsers", func(int64) { natUsersR = analysis.ComputeNATUsers(in) })
		},
		func() {
			tr.do(join, "analysis.ComputeASOverlap", func(int64) { overlap = analysis.ComputeASOverlap(in) })
		},
		func() {
			tr.do(join, "analysis.ComputeFunnel", func(int64) {
				funnel = analysis.ComputeFunnel(in, out.stats.UniqueIPs, stages)
			})
		},
	)
	endJoin()
	out.figures = []string{overlap.Figure3().Render(), funnel.Table().Render(),
		perList.Figure5().Render(), perList.Figure6().Render(),
		durations.Figure7().Render(), natUsersR.Figure8().Render()}
	return out, nil
}

// replayCrawl is Run's crawl stage for vantage 0: build the swarm, let NAT
// mappings open, crawl, and merge the results as Run does.
func replayCrawl(tr *tracer, root int64, w *blgen.World, def core.Config, out *replayOut) (*iputil.Set, error) {
	stage, endStage := tr.begin(root, "stage.crawl")
	defer endStage()
	scopeSet := w.BlocklistedSpace()
	var scope func(iputil.Addr) bool
	if !def.ScopeAll {
		scope = scopeSet.Covers
	}
	var swarm *core.Swarm
	var err error
	tr.do(stage, "core.BuildSwarm", func(int64) {
		swarm, err = core.BuildSwarm(w, swarmConfig(def), scopeSet.Covers)
	})
	if err != nil {
		return nil, err
	}
	vantage := iputil.AddrFrom4(198, 18, 0, 1)
	sock, err := swarm.Listen(netsim.Endpoint{Addr: vantage, Port: 9999})
	if err != nil {
		return nil, err
	}
	c := crawler.New(sock, dht.SimClock(swarm.ClockAt(vantage)), crawler.Config{
		Bootstrap: []netsim.Endpoint{swarm.Bootstrap},
		Scope:     scope,
		Seed:      def.Seed ^ 0x4352574c, // Run's vantage-0 crawler seed
	})
	tr.do(stage, "crawler.crawl", func(int64) {
		swarm.RunFor(time.Minute)
		c.Start()
		swarm.RunFor(def.CrawlDuration)
		c.Stop()
	})
	st := c.Stats()
	observed := iputil.NewSet()
	observed.AddSet(c.ObservedIPs())
	out.nated = crawler.MergeObservations(c.NATed())
	out.stats = crawler.MergeStats(st)
	out.stats.UniqueIPs = observed.Len()
	out.stats.UniqueNodeIDs = st.UniqueNodeIDs
	out.stats.NATedIPs = len(out.nated)
	out.net = swarm.NetStats()
	return observed, nil
}

func swarmConfig(def core.Config) core.SwarmConfig {
	return core.SwarmConfig{
		Loss:           def.Loss,
		Seed:           def.Seed,
		RestartsPerDay: def.RestartsPerDay,
		ChurnHorizon:   def.CrawlDuration,
		Shards:         def.Shards,
		ShardWorkers:   def.Workers,
		Compact:        def.Compact,
	}
}

// swarmFootprint builds one more swarm outside the replay and reports the
// live heap it holds per BitTorrent host.
func swarmFootprint(tr *tracer, w *blgen.World, cfg core.Config) (float64, error) {
	def := core.NewStudyFromWorld(w, cfg).Config
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var swarm *core.Swarm
	var err error
	tr.do(0, "footprint core.BuildSwarm", func(int64) {
		swarm, err = core.BuildSwarm(w, swarmConfig(def), w.BlocklistedSpace().Covers)
	})
	if err != nil {
		return 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(swarm)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(len(w.BTUsers)), nil
}

// sampleBlocks is Run's ICMP block sample: every k'th world /24.
func sampleBlocks(w *blgen.World, frac float64) []iputil.Prefix {
	var all []iputil.Prefix
	for _, a := range w.ASes {
		for _, pi := range a.Prefixes {
			all = append(all, pi.Prefix)
		}
	}
	if frac >= 1 {
		return all
	}
	step := int(1 / frac)
	if step < 1 {
		step = 1
	}
	var out []iputil.Prefix
	for i := 0; i < len(all); i += step {
		out = append(out, all[i])
	}
	return out
}

// sameStudy is the replay-equivalence gate: the replay must have produced
// the untraced study's NATed list, crawl counts, RIPE dynamic prefixes, ICMP
// probe count and the report sections the joins render, or its per-layer
// numbers would describe a different program.
func sameStudy(rp *replayOut, st *core.Study, rep *core.Report) error {
	var errs []error
	if !reflect.DeepEqual(rp.nated, st.NATed) {
		errs = append(errs, fmt.Errorf("NATed list: replay %d addresses, study %d", len(rp.nated), len(st.NATed)))
	}
	if rp.stats != st.CrawlStats {
		errs = append(errs, fmt.Errorf("crawl stats: replay %+v, study %+v", rp.stats, st.CrawlStats))
	}
	if !slices.Equal(rp.dynamic, st.RIPE.DynamicPrefixes.Sorted()) {
		errs = append(errs, errors.New("RIPE dynamic prefixes differ"))
	}
	if st.Cai != nil && rp.probes != st.Cai.ProbesSent {
		errs = append(errs, fmt.Errorf("ICMP probes: replay %d, study %d", rp.probes, st.Cai.ProbesSent))
	}
	want := []string{rep.Overlap.Figure3().Render(), rep.Funnel.Table().Render(),
		rep.PerList.Figure5().Render(), rep.PerList.Figure6().Render(),
		rep.Durations.Figure7().Render(), rep.NATUsers.Figure8().Render()}
	for i := range want {
		if rp.figures[i] != want[i] {
			errs = append(errs, fmt.Errorf("rendered join section %d differs", i))
		}
	}
	return errors.Join(errs...)
}
