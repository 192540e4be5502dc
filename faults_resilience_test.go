// Resilience suite: the study pipeline must survive every scripted fault
// scenario with its headline detections inside a pinned tolerance band of the
// fault-free baseline, stay bit-for-bit reproducible per seed, and remain
// worker-count invariant while faults are active. These bands are the
// contract the fault-injection layer is held to — tighten them only with
// evidence, loosen them never silently.
package reuseblock_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/core"
	"github.com/reuseblock/reuseblock/internal/faults"
)

// resilienceStudy runs the small two-vantage study under the named fault
// scenario ("" = fault-free baseline) on a one-shard fabric and returns the
// study plus its report.
func resilienceStudy(t *testing.T, seed int64, workers int, scenario string) (*core.Study, *core.Report) {
	t.Helper()
	return shardedResilienceStudy(t, seed, workers, 1, scenario)
}

// shardedResilienceStudy is resilienceStudy on a fabric of the given shard
// count.
func shardedResilienceStudy(t *testing.T, seed int64, workers, shards int, scenario string) (*core.Study, *core.Report) {
	t.Helper()
	scn, err := faults.Lookup(scenario)
	if err != nil {
		t.Fatal(err)
	}
	wp := blgen.DefaultParams(seed)
	wp.Scale = 0.05
	s := core.NewStudy(core.Config{
		Seed:          seed,
		World:         &wp,
		CrawlDuration: 4 * time.Hour,
		Vantages:      2,
		Workers:       workers,
		Shards:        shards,
		Faults:        scn,
	})
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("scenario %q: %v", scenario, err)
	}
	return s, rep
}

// TestResilienceToleranceBands pins how far each moderate scenario may push
// the two headline results off the fault-free baseline: NAT-detection recall
// may drop by at most maxRecallDrop, and the ICMP baseline's dynamic-/24
// coverage must stay untouched unless the scenario scripts ICMP probe loss.
func TestResilienceToleranceBands(t *testing.T) {
	base, baseRep := resilienceStudy(t, 1, 0, "")
	if base.Degradation != nil {
		t.Fatal("fault-free run grew a degradation report")
	}
	baseRecall := baseRep.NATScore.Recall
	baseDynamic := base.Cai.DynamicBlocks.Len()
	if baseRecall <= 0 || baseDynamic == 0 {
		t.Fatalf("baseline is degenerate: recall %.3f, %d dynamic blocks", baseRecall, baseDynamic)
	}

	// Empirically (seed 1, scale 0.05, 4 h crawl) the retry/eviction policy
	// more than compensates for every scripted scenario — recall lands
	// 0.13–0.23 ABOVE the fault-free baseline, because the baseline crawler
	// gives up on first loss while the faulted crawler retries. The bands
	// below leave headroom for moderate regression but fail the suite the
	// moment a scenario starts genuinely starving NAT detection.
	scenarios := []struct {
		name          string
		maxRecallDrop float64 // absolute drop tolerated vs baseline recall
		icmpFaulted   bool    // scenario scripts ICMP probe loss
	}{
		{"bursty", 0.15, false},
		{"ratelimit", 0.15, false},
		{"corrupt", 0.15, false},
		{"byzantine", 0.15, false},
		{"storm", 0.20, false},
		{"blackout", 0.25, false},
		{"hostile", 0.30, true},
	}
	if testing.Short() {
		scenarios = scenarios[:1]
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			s, rep := resilienceStudy(t, 1, 0, sc.name)
			if s.Degradation == nil {
				t.Fatal("faulted run produced no degradation report")
			}
			if s.Degradation.Scenario != sc.name {
				t.Errorf("degradation names scenario %q, want %q", s.Degradation.Scenario, sc.name)
			}
			drop := baseRecall - rep.NATScore.Recall
			t.Logf("recall %.3f -> %.3f (drop %.3f, tolerance %.2f); faults %+v",
				baseRecall, rep.NATScore.Recall, drop, sc.maxRecallDrop, s.FaultStats)
			if drop > sc.maxRecallDrop {
				t.Errorf("NAT recall dropped %.3f (%.3f -> %.3f), tolerance %.2f",
					drop, baseRecall, rep.NATScore.Recall, sc.maxRecallDrop)
			}
			dyn := s.Cai.DynamicBlocks.Len()
			if !sc.icmpFaulted {
				if dyn != baseDynamic {
					t.Errorf("dynamic-/24 coverage moved without ICMP faults: %d vs %d", dyn, baseDynamic)
				}
				if s.Cai.Retransmissions != 0 {
					t.Errorf("ICMP retransmitted %d times without scripted probe loss", s.Cai.Retransmissions)
				}
			} else {
				lo, hi := baseDynamic*8/10, baseDynamic*12/10
				if dyn < lo || dyn > hi {
					t.Errorf("dynamic-/24 coverage %d outside [%d,%d] under probe loss", dyn, lo, hi)
				}
			}
		})
	}
}

// TestResilienceDeterminism: a faulted study is a pure function of its seed —
// two runs of the hostile scenario render byte-identical reports, degradation
// table included, and their fault counters match exactly.
func TestResilienceDeterminism(t *testing.T) {
	s1, r1 := resilienceStudy(t, 1, 0, "hostile")
	s2, r2 := resilienceStudy(t, 1, 0, "hostile")
	if a, b := r1.Render(), r2.Render(); a != b {
		t.Errorf("hostile scenario diverged across identical runs at %s", firstDiff(a, b))
	}
	if s1.FaultStats != s2.FaultStats {
		t.Errorf("fault counters diverged: %+v vs %+v", s1.FaultStats, s2.FaultStats)
	}
	if s1.CrawlStats != s2.CrawlStats {
		t.Errorf("crawl stats diverged: %+v vs %+v", s1.CrawlStats, s2.CrawlStats)
	}
}

// TestResilienceWorkerEquivalence: fault injection is a pure function of
// each vantage's seed, so the parallel pipeline must stay equivalent to the
// sequential one under an active scenario.
func TestResilienceWorkerEquivalence(t *testing.T) {
	scenarios := []string{"bursty", "hostile"}
	if testing.Short() {
		scenarios = scenarios[:1]
	}
	for _, name := range scenarios {
		t.Run(name, func(t *testing.T) {
			_, seq := resilienceStudy(t, 1, 1, name)
			_, par := resilienceStudy(t, 1, 4, name)
			if a, b := seq.Render(), par.Render(); a != b {
				t.Errorf("workers=4 diverged from workers=1 under %s at %s", name, firstDiff(a, b))
			}
		})
	}
}

// TestResilienceShardInvariance: a study's report does not depend on how
// each vantage's fabric is sharded — Shards 2 and 4 render the one-shard
// report byte for byte, fault-free and under every catalogue scenario. With
// 4 workers the shards of a vantage run concurrently, so under -race this
// is also the race workload for faulted sharded studies. -short keeps the
// fault-free and hostile studies at 4 shards.
func TestResilienceShardInvariance(t *testing.T) {
	scenarios := append([]string{""}, faults.Names()...)
	shardCounts := []int{2, 4}
	if testing.Short() {
		scenarios, shardCounts = []string{"", "hostile"}, []int{4}
	}
	for _, name := range scenarios {
		label := name
		if label == "" {
			label = "fault-free"
		}
		t.Run(label, func(t *testing.T) {
			_, want := shardedResilienceStudy(t, 1, 4, 1, name)
			for _, shards := range shardCounts {
				_, got := shardedResilienceStudy(t, 1, 4, shards, name)
				if a, b := want.Render(), got.Render(); a != b {
					t.Errorf("shards=%d diverged from shards=1 under %s at %s", shards, label, firstDiff(a, b))
				}
			}
		})
	}
}

// TestResilienceScenarioCatalogue: every named scenario must run the study to
// completion — no panics, no aborts — and report its own name.
func TestResilienceScenarioCatalogue(t *testing.T) {
	if testing.Short() {
		t.Skip("catalogue sweep is covered by the tolerance bands in full mode")
	}
	for _, name := range faults.Names() {
		t.Run(name, func(t *testing.T) {
			s, rep := resilienceStudy(t, 2, 0, name)
			if rep == nil || s.Degradation == nil {
				t.Fatal("scenario produced no report or no degradation summary")
			}
			if got := fmt.Sprint(s.Degradation.Scenario); got != name {
				t.Errorf("degradation scenario %q, want %q", got, name)
			}
		})
	}
}
