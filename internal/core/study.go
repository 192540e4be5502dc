package core

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/reuseblock/reuseblock/internal/analysis"
	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/crawler"
	"github.com/reuseblock/reuseblock/internal/faults"
	"github.com/reuseblock/reuseblock/internal/icmpsurvey"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/netsim"
	"github.com/reuseblock/reuseblock/internal/obs"
	"github.com/reuseblock/reuseblock/internal/parallel"
	"github.com/reuseblock/reuseblock/internal/ripeatlas"
	"github.com/reuseblock/reuseblock/internal/survey"
)

// Config tunes a full study run. Zero values pick calibrated defaults.
type Config struct {
	Seed int64
	// World overrides the generated world's parameters; nil uses
	// blgen.DefaultParams(Seed).
	World *blgen.Params

	// CrawlDuration is the simulated length of the BitTorrent crawl. The
	// paper crawled for the full 83 days; detection saturates far sooner,
	// so the default is 48 hours of simulated time.
	CrawlDuration time.Duration
	// Loss is the fabric's datagram loss (default 0.26 — chosen so the
	// crawler's response rate lands near the paper's 48.6%, which also
	// reflects NAT filtering and stale entries, not just loss).
	Loss float64
	// RestrictScope restricts the crawler to blocklisted /24 space like
	// the paper (§3.1); default true. Set ScopeAll to crawl everything.
	ScopeAll bool
	// RestartsPerDay is the public BitTorrent clients' daily restart rate
	// (port + node-ID churn — the §3.1 stale-information confound);
	// negative disables, zero means the default 0.15.
	RestartsPerDay float64
	// Vantages is the number of crawler vantage points run in parallel
	// from different networks — the coverage/burden improvement §3.1
	// suggests. Default 1 (the paper's setup); results are merged.
	Vantages int

	// Survey (Cai et al. baseline) settings.
	SurveyBlockFrac float64       // fraction of world /24s sampled (default 0.5)
	SurveyDuration  time.Duration // default 14 days
	SurveyInterval  time.Duration // default 1 hour

	// SkipCrawl / SkipICMP skip the expensive stages (for quick looks at
	// feed-only statistics); the corresponding results stay empty.
	SkipCrawl bool
	SkipICMP  bool

	// Faults injects a scripted fault scenario into the run (see
	// internal/faults): wire-level faults shape every vantage's network,
	// byzantine marking and restart storms shape the swarm, and ICMP
	// faults shape the Cai baseline. The crawler gains retries and
	// endpoint eviction, failed vantages degrade to partial results, and
	// the report carries a Degradation section. Nil (the default) changes
	// nothing: output stays byte-identical to a fault-free run. Any Shards
	// value composes with it.
	Faults *faults.Scenario

	// Shards partitions each vantage's simulated fabric into this many
	// event-loop shards advancing in conservative lockstep windows
	// (netsim.ShardGroup), run on up to Workers goroutines. The report is
	// byte-identical for every value, fault scenarios included. 0 (the
	// default) gives one shard per worker, so the crawl spreads over
	// Workers cores; 1 runs one event loop.
	Shards int
	// Deprecated: Compact has no effect; every node holds its splitmix64
	// generator by value.
	Compact bool

	// Workers bounds the parallelism of every deterministic fan-out in the
	// study: the independent measurement stages (crawl, RIPE pipeline,
	// ICMP baseline, survey), the per-vantage crawl simulations, feed
	// generation, the ICMP block shards, the analysis joins, and the
	// report's figure/table DAG. Each unit of work is seeded and collected
	// independently of scheduling, so output is bit-for-bit identical for
	// any value. Default (<= 0) is GOMAXPROCS; 1 forces the legacy
	// sequential path with no goroutines.
	Workers int

	// Obs, when non-nil, collects the run's metrics: deterministic counts
	// (queries, probes, fault drops, detections) whose snapshots are
	// byte-identical for any Workers value, plus wall-clock values under
	// the obs.WallPrefix namespace. Nil (the default) records nothing and
	// leaves all output byte-identical to an uninstrumented run.
	Obs *obs.Registry
	// Trace, when non-nil, collects hierarchical spans (study → stage →
	// vantage → ping round / sweep). Span structure and attributes are
	// deterministic; only wall timestamps vary between runs.
	Trace *obs.Tracer
}

func (c *Config) applyDefaults() {
	if c.CrawlDuration <= 0 {
		c.CrawlDuration = 48 * time.Hour
	}
	if c.Loss <= 0 {
		c.Loss = 0.26
	}
	if c.SurveyBlockFrac <= 0 {
		c.SurveyBlockFrac = 0.5
	}
	if c.SurveyDuration <= 0 {
		c.SurveyDuration = 14 * 24 * time.Hour
	}
	if c.SurveyInterval <= 0 {
		c.SurveyInterval = time.Hour
	}
	if c.RestartsPerDay == 0 {
		c.RestartsPerDay = 0.15
	}
	if c.RestartsPerDay < 0 {
		c.RestartsPerDay = 0
	}
	if c.Vantages <= 0 {
		c.Vantages = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// Study is one end-to-end reproduction run.
type Study struct {
	Config Config
	World  *blgen.World

	// Results, populated by Run. Crawl fills the crawl stage's four:
	// CrawlStats, NATed, BTObserved and FaultStats.
	CrawlStats crawler.Stats
	NATed      []crawler.NATObservation
	BTObserved *iputil.Set
	RIPE       *ripeatlas.Result
	Cai        *icmpsurvey.Result
	Survey     survey.Summary
	TypeUsage  []survey.TypeUsage
	Inputs     *analysis.Inputs
	// Degradation explains what a fault scenario did to this run; nil for
	// fault-free runs. FaultStats sums the wire-level injector counters
	// across vantages.
	Degradation *Degradation
	FaultStats  faults.Stats

	// crawlStages records per-vantage outcomes for the degradation report.
	crawlStages []StageReport
	// stageStatuses records per-stage outcomes for the run manifest.
	stageStatuses []obs.StageStatus
	// parallelBase snapshots the process-global pool counters at study
	// creation so finishObs can report per-run diffs.
	parallelBase parallel.Counters
}

// NewStudy generates the world for a study.
func NewStudy(cfg Config) *Study {
	cfg.applyDefaults()
	var wp blgen.Params
	if cfg.World != nil {
		wp = *cfg.World
	} else {
		wp = blgen.DefaultParams(cfg.Seed)
	}
	if wp.Workers == 0 {
		wp.Workers = cfg.Workers
	}
	base := parallel.Snapshot()
	return &Study{Config: cfg, World: blgen.Generate(wp), parallelBase: base}
}

// NewStudyFromWorld wraps an already-generated world; useful when several
// studies (different crawl settings, ablations) share one world.
func NewStudyFromWorld(w *blgen.World, cfg Config) *Study {
	cfg.applyDefaults()
	return &Study{Config: cfg, World: w, parallelBase: parallel.Snapshot()}
}

// Run executes every stage and returns the full report.
//
// Stages 1–4 (crawl, RIPE pipeline, ICMP baseline, survey) only read the
// world and write disjoint Study fields, so they run concurrently under
// Config.Workers; stage 5 joins their outputs. With Workers == 1 the stages
// run inline in the legacy order and the output is identical either way.
func (s *Study) Run() (*Report, error) {
	w := s.World
	if err := s.Config.Faults.Validate(); err != nil {
		return nil, err
	}
	root := s.Config.Trace.Root("study",
		obs.Int("seed", s.Config.Seed),
		obs.Int("vantages", int64(s.Config.Vantages)),
		obs.String("faults", s.faultName()),
	)

	var crawlErr error
	parallel.Do(s.Config.Workers,
		// Stage 1: the BitTorrent crawl over the simulated network.
		s.stage(root, "crawl", func(sp *obs.Span) { crawlErr = s.crawl(nil, sp) }),
		// Stage 2: the RIPE dynamic-address pipeline over the fleet logs.
		s.stage(root, "ripe", func(*obs.Span) {
			s.RIPE = ripeatlas.Detect(w.RIPELogs, ripeatlas.DetectOptions{})
		}),
		// Stage 3: the Cai et al. ICMP baseline over sampled blocks.
		s.stage(root, "icmp", func(*obs.Span) {
			if s.Config.SkipICMP {
				return
			}
			icmpCfg := icmpsurvey.Config{
				Blocks:   s.sampleBlocks(),
				Start:    w.RIPEStart,
				Duration: s.Config.SurveyDuration,
				Interval: s.Config.SurveyInterval,
				Workers:  s.Config.Workers,
				Obs:      s.Config.Obs,
			}
			if f := s.Config.Faults; f != nil && f.ICMP != nil {
				icmpCfg.ProbeLoss = f.ICMP.ProbeLoss
				icmpCfg.Retransmits = f.ICMP.Retransmits
				icmpCfg.Seed = s.Config.Seed ^ 0x49434d50 // "ICMP"
			}
			s.Cai = icmpsurvey.Run(w, icmpCfg)
		}),
		// Stage 4: the operator survey tabulations.
		s.stage(root, "survey", func(*obs.Span) {
			responses := survey.StandardResponses(s.Config.Seed)
			s.Survey = survey.Summarize(responses)
			s.TypeUsage = survey.TypesAmongAffected(responses)
		}),
	)
	if crawlErr != nil {
		s.Degradation = s.buildDegradation()
		root.End()
		return nil, crawlErr
	}

	// Stage 5: joins.
	natUsers := make(map[iputil.Addr]int, len(s.NATed))
	for _, o := range s.NATed {
		natUsers[o.Addr] = o.Users
	}
	s.Inputs = &analysis.Inputs{
		Collection:      w.Collection,
		NATUsers:        natUsers,
		BTObserved:      s.BTObserved,
		DynamicPrefixes: s.RIPE.DynamicPrefixes,
		RIPEPrefixes:    s.RIPE.RIPEPrefixes,
		Workers:         s.Config.Workers,
		ASNOf: func(a iputil.Addr) (int, bool) {
			pi, ok := w.PrefixOf(a)
			if !ok {
				return 0, false
			}
			return pi.ASN, true
		},
	}
	if s.Cai != nil {
		s.Inputs.CaiBlocks = s.Cai.DynamicBlocks
	}
	s.Degradation = s.buildDegradation()
	s.noteStages(crawlErr)
	join := root.Child("join")
	rep := s.buildReport()
	join.End()
	s.finishObs(rep)
	root.End()
	return rep, nil
}

// vantageRun is one crawler vantage point's complete output.
type vantageRun struct {
	stats  crawler.Stats
	nated  []crawler.NATObservation
	ips    *iputil.Set
	faults faults.Stats
	net    netsim.Stats
	// windows and concurrentWindows are the fabric's lockstep window
	// counts (netsim.ShardGroup.Windows).
	windows, concurrentWindows int64
	err                        error
}

// Crawl runs the study's crawl stage alone, as Run's stage 1 runs it, and
// fills NATed, CrawlStats, BTObserved and FaultStats. A non-nil log
// receives the crawler's message log (crawler.ParseLog reads it back, and
// crawler.Replay re-derives NATed from it). A log records one crawler, so it
// needs Config.Vantages 1.
func (s *Study) Crawl(log io.Writer) error {
	if err := s.Config.Faults.Validate(); err != nil {
		return err
	}
	if log != nil && s.Config.Vantages > 1 {
		return fmt.Errorf("core: a message log records one crawler, not %d vantages", s.Config.Vantages)
	}
	return s.crawl(log, nil)
}

// crawl runs the crawl stage: Config.Vantages crawler vantage points in
// distinct networks (Swarm.StartCrawler). Each vantage drives its own
// simulator instance seeded only by (Config.Seed, vantage index), and the
// per-vantage results merge in vantage order, so the outcome is independent
// of scheduling.
func (s *Study) crawl(log io.Writer, crawlSpan *obs.Span) error {
	s.BTObserved = iputil.NewSet()
	if s.Config.SkipCrawl {
		return nil
	}
	scopeSet := s.World.BlocklistedSpace()
	var scope func(iputil.Addr) bool
	if !s.Config.ScopeAll {
		scope = scopeSet.Covers
	}
	runs := parallel.Map(s.Config.Workers, s.Config.Vantages, func(v int) vantageRun {
		vsp := crawlSpan.Child(fmt.Sprintf("vantage %d", v))
		defer vsp.End()
		// Vantage 0 reuses the plain study seed so a single-vantage run
		// reproduces the original single-swarm results exactly.
		swarm, err := BuildSwarm(s.World, SwarmConfig{
			Loss:           s.Config.Loss,
			Seed:           s.Config.Seed ^ int64(v)<<20,
			RestartsPerDay: s.Config.RestartsPerDay,
			ChurnHorizon:   s.Config.CrawlDuration,
			Faults:         s.Config.Faults,
			Shards:         s.Config.Shards,
			ShardWorkers:   s.Config.Workers,
		}, scopeSet.Covers)
		if err != nil {
			vsp.SetAttr(obs.String("error", err.Error()))
			return vantageRun{err: err}
		}
		r := s.crawlVantage(v, swarm, scope, log, vsp)
		if r.err != nil {
			vsp.SetAttr(obs.String("error", r.err.Error()))
		}
		return r
	})
	return s.mergeVantages(runs)
}

// crawlVantage crawls swarm from vantage v, within scope, for the
// configured duration, writing its message log to log when non-nil. A crawl
// that heard no reply at all learned nothing about the swarm — its
// bootstrap was unreachable — so it is a failed vantage, not an empty
// success.
func (s *Study) crawlVantage(v int, swarm *Swarm, scope func(iputil.Addr) bool, log io.Writer, vsp *obs.Span) vantageRun {
	c, err := swarm.StartCrawler(v, crawler.Config{
		Scope:    scope,
		Seed:     s.Config.Seed ^ 0x4352574c ^ int64(v)<<32, // "CRWL"
		EventLog: log,
		Obs:      s.Config.Obs,
		Trace:    vsp,
	})
	if err != nil {
		return vantageRun{err: err}
	}
	swarm.RunFor(s.Config.CrawlDuration)
	c.Stop()
	st := c.Stats()
	vsp.SetAttr(obs.Int("queries", st.MessagesSent))
	vsp.SetAttr(obs.Int("replies", st.MessagesReceived))
	vsp.SetAttr(obs.Int("unique_ips", int64(st.UniqueIPs)))
	if st.MessagesReceived == 0 {
		return vantageRun{err: fmt.Errorf("core: crawl vantage %d got no replies to %d queries (bootstrap %s unreachable)",
			v, st.MessagesSent, swarm.Bootstrap)}
	}
	r := vantageRun{stats: st, nated: c.NATed(), ips: c.ObservedIPs(),
		faults: swarm.Injector.Stats(), net: swarm.NetStats()}
	r.windows, r.concurrentWindows = swarm.Group.Windows()
	return r
}

// mergeVantages merges the vantage runs in vantage order. A failed vantage
// becomes a "failed" stage in the degradation report; under a fault
// scenario the study goes on with the survivors, otherwise it fails.
func (s *Study) mergeVantages(runs []vantageRun) error {
	var statParts []crawler.Stats
	var obsParts [][]crawler.NATObservation
	salvage := s.Config.Faults != nil
	survivors := 0
	for v, r := range runs {
		if r.err != nil {
			s.crawlStages = append(s.crawlStages, StageReport{
				Stage:  fmt.Sprintf("crawl vantage %d", v),
				Status: "failed",
				Detail: r.err.Error(),
			})
			// Under a fault scenario a dead vantage degrades the study
			// instead of aborting it; the report carries the loss.
			if !salvage {
				return r.err
			}
			continue
		}
		survivors++
		if salvage {
			status := "ok"
			if r.stats.ResponseRate < respRateFloor {
				status = "degraded"
			}
			s.crawlStages = append(s.crawlStages, StageReport{
				Stage:  fmt.Sprintf("crawl vantage %d", v),
				Status: status,
				Detail: fmt.Sprintf("%.1f%% response rate, %d fault drops, %d retries, %d evicted",
					r.stats.ResponseRate*100, r.faults.Total(), r.stats.Retries, r.stats.Evicted),
			})
		}
		statParts = append(statParts, r.stats)
		obsParts = append(obsParts, r.nated)
		s.FaultStats.Add(r.faults)
		// Fabric and injector counters merge here, after the fan-out, in
		// vantage order: each vantage's counts are a pure function of its
		// seed, so the sums are worker- and shard-invariant. The injector
		// series only exist when a scenario is active.
		r.net.Record(s.Config.Obs)
		// The window counts follow the shard count, which follows Workers.
		s.Config.Obs.Counter(obs.WallPrefix + "fabric_windows_total").Add(r.windows)
		s.Config.Obs.Counter(obs.WallPrefix + "fabric_concurrent_windows_total").Add(r.concurrentWindows)
		if s.Config.Faults != nil {
			r.faults.Record(s.Config.Obs, s.faultName())
		}
		s.BTObserved.AddSet(r.ips)
	}
	if survivors == 0 {
		return fmt.Errorf("core: all %d crawl vantages failed", s.Config.Vantages)
	}
	s.NATed = crawler.MergeObservations(obsParts...)
	s.CrawlStats = crawler.MergeStats(statParts...)
	s.CrawlStats.UniqueIPs = s.BTObserved.Len()
	uniqueIDs := 0
	for _, p := range statParts {
		if p.UniqueNodeIDs > uniqueIDs {
			uniqueIDs = p.UniqueNodeIDs
		}
	}
	s.CrawlStats.UniqueNodeIDs = uniqueIDs
	s.CrawlStats.NATedIPs = len(s.NATed)
	return nil
}

// sampleBlocks picks the ICMP survey's block sample deterministically: every
// k'th world /24 so the sample spans all prefix kinds.
func (s *Study) sampleBlocks() []iputil.Prefix {
	frac := s.Config.SurveyBlockFrac
	var all []iputil.Prefix
	for _, a := range s.World.ASes {
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
