// Paper-scale world tests.
//
// The paper's observed population is millions of addresses, so the study
// runs on a sharded fabric. These tests pin that a sharded run stays
// deterministic and scheduling-invariant; shard-count invariance is pinned
// by TestResilienceShardInvariance, and the per-host footprint bound by
// core.TestSwarmFootprint.
package reuseblock_test

import (
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/core"
)

// renderScaleStudy runs a small sharded study and returns the rendered
// report.
func renderScaleStudy(t *testing.T, seed int64, shards, workers int) (*core.Study, string) {
	t.Helper()
	wp := blgen.DefaultParams(seed)
	wp.Scale = 0.05
	s := core.NewStudy(core.Config{
		Seed:          seed,
		World:         &wp,
		CrawlDuration: 2 * time.Hour,
		Vantages:      2,
		Workers:       workers,
		Shards:        shards,
		SkipICMP:      true,
	})
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("seed %d shards %d workers %d: %v", seed, shards, workers, err)
	}
	return s, rep.Render()
}

// TestScaleShardedStudySmoke: the scale configuration (sharded fabric, two
// vantages) must still crawl a world end to end and confirm NATed
// addresses — the fast gate run under -race in CI.
func TestScaleShardedStudySmoke(t *testing.T) {
	s, _ := renderScaleStudy(t, 1, 4, 2)
	if s.CrawlStats.UniqueIPs == 0 {
		t.Fatal("sharded crawl observed no addresses")
	}
	if len(s.NATed) == 0 {
		t.Fatal("sharded crawl confirmed no NATed addresses")
	}
}

// TestScaleShardedWorkerInvariance: a sharded run is a pure function of its
// seed — the vantage fan-out worker pool and the intra-window shard worker
// pool must both be invisible in the output bytes.
func TestScaleShardedWorkerInvariance(t *testing.T) {
	_, seq := renderScaleStudy(t, 1, 4, 1)
	_, par := renderScaleStudy(t, 1, 4, 4)
	if seq != par {
		t.Errorf("sharded study workers=4 diverged from workers=1 at %s", firstDiff(seq, par))
	}
}

// TestScaleShardedRepeatable: same configuration twice, identical bytes.
func TestScaleShardedRepeatable(t *testing.T) {
	_, a := renderScaleStudy(t, 2, 4, 2)
	_, b := renderScaleStudy(t, 2, 4, 2)
	if a != b {
		t.Errorf("sharded study not repeatable: diverges at %s", firstDiff(a, b))
	}
}
