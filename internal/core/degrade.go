package core

import (
	"fmt"

	"github.com/reuseblock/reuseblock/internal/stats"
)

// The paper's measurements were taken on networks that misbehaved constantly
// — unanswered queries, rate limits, churn — and the authors shipped results
// anyway, with caveats. This file gives the reproduction the same posture:
// when a fault scenario is active, a failed or fault-starved stage degrades
// the study to partial results plus an explicit Degradation report instead
// of aborting the run.

// StageReport describes how one pipeline stage fared under faults.
type StageReport struct {
	Stage  string // e.g. "crawl vantage 0"
	Status string // "ok", "degraded" or "failed"
	Detail string
}

// Degradation summarises what the fault scenario did to the study: which
// stages failed or limped, what was salvaged, and which confidence caveats
// apply to the rendered numbers. It is built only from deterministic stage
// statistics, so a seeded run always produces the same report.
type Degradation struct {
	Scenario string
	Stages   []StageReport
	Caveats  []string
}

// respRateFloor is the crawl response rate under which NAT detection is
// considered fault-starved: the paper's own crawl sat near 51%, and the
// verification rule needs multiple replies per round to confirm anything.
const respRateFloor = 0.05

// buildDegradation composes the report after all stages have completed. It
// runs single-threaded over stage outputs recorded by the stages themselves.
func (s *Study) buildDegradation() *Degradation {
	scn := s.Config.Faults
	if scn == nil && len(s.crawlStages) == 0 {
		return nil
	}
	d := &Degradation{Scenario: "none"}
	if scn != nil {
		d.Scenario = scn.Name
		if d.Scenario == "" {
			d.Scenario = "custom"
		}
	}
	d.Stages = append(d.Stages, s.crawlStages...)

	if !s.Config.SkipCrawl {
		failed := 0
		for _, st := range s.crawlStages {
			if st.Status == "failed" {
				failed++
			}
		}
		if failed > 0 {
			d.Caveats = append(d.Caveats, fmt.Sprintf(
				"%d of %d crawl vantages failed; NAT results merged from the survivors only",
				failed, s.Config.Vantages))
		}
		if rate := s.CrawlStats.ResponseRate; rate < respRateFloor {
			d.Caveats = append(d.Caveats, fmt.Sprintf(
				"crawl response rate %.1f%% is below the %.0f%% floor; NAT coverage is fault-starved",
				rate*100, respRateFloor*100))
		}
		if s.CrawlStats.Evicted > 0 {
			d.Caveats = append(d.Caveats, fmt.Sprintf(
				"%d endpoints evicted as persistently dead; coverage behind them is lost",
				s.CrawlStats.Evicted))
		}
	}
	if scn != nil && scn.Byzantine != nil {
		d.Caveats = append(d.Caveats,
			"byzantine nodes fabricated neighbours; unique-IP and scope-suppression counts include phantom endpoints")
	}
	if scn != nil && len(scn.Storms) > 0 {
		d.Caveats = append(d.Caveats,
			"restart storms churned endpoints mid-crawl; port counts overstate concurrent users between ping rounds")
	}
	if s.Cai != nil {
		status := "ok"
		detail := fmt.Sprintf("%d probes", s.Cai.ProbesSent)
		if s.Cai.Retransmissions > 0 {
			status = "degraded"
			detail = fmt.Sprintf("%d probes, %d retransmissions", s.Cai.ProbesSent, s.Cai.Retransmissions)
			d.Caveats = append(d.Caveats,
				"ICMP probe loss consumed retransmits; availability metrics are biased low")
		}
		d.Stages = append(d.Stages, StageReport{Stage: "ICMP baseline", Status: status, Detail: detail})
	}
	return d
}

// DegradationTable renders the degradation report. Only called when the
// study ran with a fault scenario; fault-free reports stay byte-identical.
func (r *Report) DegradationTable() *stats.Table {
	d := r.study.Degradation
	t := stats.NewTable(fmt.Sprintf("Degradation report (scenario: %s)", d.Scenario),
		"Stage", "Status", "Detail")
	for _, st := range d.Stages {
		t.AddRow(st.Stage, st.Status, st.Detail)
	}
	for i, c := range d.Caveats {
		t.AddRow(fmt.Sprintf("caveat %d", i+1), "", c)
	}
	if len(d.Stages) == 0 && len(d.Caveats) == 0 {
		t.AddRow("all stages", "ok", "scenario injected no observable degradation")
	}
	return t
}
