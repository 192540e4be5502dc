package core

import (
	"fmt"
	"time"

	"github.com/reuseblock/reuseblock/internal/obs"
	"github.com/reuseblock/reuseblock/internal/parallel"
)

// This file is the study's observability seam: stage spans and wall-clock
// timings, per-run metric finalisation, stage statuses, and the run
// manifest. Everything here is a no-op when Config.Obs and Config.Trace are
// both nil — the default for every existing entry point — so fault-free,
// metrics-off output stays byte-identical to the committed goldens.

// faultName names the configured scenario for labels and the manifest:
// "" (fault-free), the catalogue name, or "custom".
func (s *Study) faultName() string {
	if s.Config.Faults == nil {
		return ""
	}
	if s.Config.Faults.Name != "" {
		return s.Config.Faults.Name
	}
	return "custom"
}

// stage wraps one pipeline stage task with a trace span and a wall-clock
// duration gauge. The span is passed to fn so stages with internal fan-out
// (the crawl's vantages) can hang children under it.
func (s *Study) stage(parent *obs.Span, name string, fn func(sp *obs.Span)) func() {
	if s.Config.Obs == nil && s.Config.Trace == nil {
		return func() { fn(nil) }
	}
	return func() {
		sp := parent.Child(name)
		start := time.Now()
		fn(sp)
		s.Config.Obs.Gauge(obs.Name(obs.WallPrefix+"stage_millis", "stage", name)).
			Set(time.Since(start).Milliseconds())
		sp.End()
	}
}

// noteStages records each stage's outcome for the manifest. Statuses derive
// only from deterministic stage statistics.
func (s *Study) noteStages(crawlErr error) {
	add := func(stage, status, detail string) {
		s.stageStatuses = append(s.stageStatuses, obs.StageStatus{
			Stage: stage, Status: status, Detail: detail,
		})
	}
	switch {
	case s.Config.SkipCrawl:
		add("crawl", "skipped", "")
	case crawlErr != nil:
		add("crawl", "failed", crawlErr.Error())
	default:
		status := "ok"
		for _, st := range s.crawlStages {
			if st.Status != "ok" {
				status = "degraded"
				break
			}
		}
		add("crawl", status, fmt.Sprintf("%d vantages, %.1f%% response rate, %d NATed IPs",
			s.Config.Vantages, s.CrawlStats.ResponseRate*100, s.CrawlStats.NATedIPs))
	}
	add("ripe", "ok", fmt.Sprintf("%d dynamic prefixes", s.RIPE.DynamicPrefixes.Len()))
	if s.Cai == nil {
		add("icmp", "skipped", "")
	} else {
		status := "ok"
		if s.Cai.Retransmissions > 0 {
			status = "degraded"
		}
		add("icmp", status, fmt.Sprintf("%d probes, %d dynamic blocks",
			s.Cai.ProbesSent, s.Cai.DynamicBlocks.Len()))
	}
	add("survey", "ok", fmt.Sprintf("%d respondents", s.Survey.Respondents))
}

// finishObs records the study-level metrics once the report exists: world
// shape, headline detections, and the per-run parallel-pool counters. The
// worker-dependent pool numbers (tasks follow worker-derived sharding,
// goroutines follow the worker cap) go to the wall namespace; batch counts
// and every detection count are worker-invariant.
func (s *Study) finishObs(rep *Report) {
	reg := s.Config.Obs
	if reg == nil {
		return
	}
	reg.Gauge("world_ases").Set(int64(len(s.World.ASes)))
	reg.Gauge("world_bt_users").Set(int64(len(s.World.BTUsers)))
	reg.Gauge("world_feeds").Set(int64(s.World.Registry.Len()))
	reg.Gauge("report_nated_ips").Set(int64(s.CrawlStats.NATedIPs))
	reg.Gauge("report_unique_ips").Set(int64(s.CrawlStats.UniqueIPs))
	reg.Gauge("ripe_dynamic_prefixes").Set(int64(s.RIPE.DynamicPrefixes.Len()))
	reg.Gauge("report_reused_addrs").Set(int64(rep.ReusedAddrs.Len()))
	if name := s.faultName(); name != "" {
		reg.Gauge(obs.Name("faults_scenario_active", "scenario", name)).Set(1)
	}

	d := parallel.Snapshot().Sub(s.parallelBase)
	reg.Counter(obs.WallPrefix + "parallel_batches_total").Add(d.Batches)
	reg.Counter(obs.WallPrefix + "parallel_tasks_total").Add(d.Tasks)
	reg.Counter(obs.WallPrefix + "parallel_inline_tasks_total").Add(d.Inline)
	reg.Counter(obs.WallPrefix + "parallel_goroutines_total").Add(d.Spawned)
	reg.Gauge(obs.WallPrefix + "parallel_max_batch").SetMax(d.MaxBatch)
	reg.Gauge(obs.WallPrefix + "workers").Set(int64(s.Config.Workers))
}

// Manifest builds the run's audit record: parameters, build provenance,
// per-stage statuses, and the full metric snapshot (wall namespace
// included — consumers wanting the golden-stable subset filter by
// obs.WallPrefix or use Config.Obs.Snapshot(false) directly). Call
// after Run; before Run it carries the parameters only.
func (s *Study) Manifest() *obs.Manifest {
	m := obs.NewManifest()
	m.Seed = s.Config.Seed
	if s.Config.World != nil {
		m.Scale = s.Config.World.Scale
	}
	m.Workers = s.Config.Workers
	m.Vantages = s.Config.Vantages
	m.FaultScenario = s.faultName()
	m.Stages = append(m.Stages, s.stageStatuses...)
	if s.Degradation != nil {
		for _, st := range s.Degradation.Stages {
			m.Stages = append(m.Stages, obs.StageStatus{
				Stage: st.Stage, Status: st.Status, Detail: st.Detail,
			})
		}
	}
	m.Metrics = s.Config.Obs.Snapshot(true)
	return m
}
