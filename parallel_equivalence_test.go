// Equivalence tests for the deterministic parallel pipeline: a study run
// with N workers must produce byte-identical output to the sequential run.
// Every fan-out in the pipeline (feed generation, the stage DAG, per-vantage
// crawls, ICMP block shards, analysis shards, the report DAG) is covered
// transitively because Report.Render touches all of their outputs.
package reuseblock_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/core"
)

// renderStudy runs a small multi-vantage study end to end with the given
// worker count and returns the full rendered report.
func renderStudy(t *testing.T, seed int64, scale float64, workers int) string {
	t.Helper()
	wp := blgen.DefaultParams(seed)
	wp.Scale = scale
	s := core.NewStudy(core.Config{
		Seed:          seed,
		World:         &wp,
		CrawlDuration: 2 * time.Hour,
		Vantages:      2,
		Workers:       workers,
	})
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("seed %d scale %g workers %d: %v", seed, scale, workers, err)
	}
	return rep.Render()
}

// TestParallelEquivalentToSequential checks Workers=4 against the Workers=1
// legacy path across several seeds and world scales. Run it under -race:
// with 4 workers the fan-outs genuinely interleave (even on one CPU), so
// this test doubles as the race-detection workload for the whole pipeline.
func TestParallelEquivalentToSequential(t *testing.T) {
	// Seed 3's 0.05-scale world has no publicly reachable swarm, so the
	// seed set skips to 4.
	seeds := []int64{1, 2, 4}
	scales := []float64{0.05, 0.15}
	if testing.Short() {
		seeds = seeds[:1]
		scales = scales[:1]
	}
	for _, seed := range seeds {
		for _, scale := range scales {
			t.Run(fmt.Sprintf("seed=%d/scale=%g", seed, scale), func(t *testing.T) {
				seq := renderStudy(t, seed, scale, 1)
				par := renderStudy(t, seed, scale, 4)
				if seq != par {
					t.Errorf("workers=4 diverged from workers=1 at %s", firstDiff(seq, par))
				}
			})
		}
	}
}

// reportDigests pins SHA-256 digests of the reports renderStudy produces
// for seven small-world configurations, re-captured when datagram fates
// became counter-based (loss, jitter and fault draws keyed by the datagram
// instead of drawn in event order) and the crawler's bootstrap stopped
// churning. They pin every byte of every table and figure, so any change
// to the simulator, the crawler, the detectors or the joins shows here.
// Seed 3's 0.05-scale world has no publicly reachable swarm, so only its
// 0.15 scale is pinned.
var reportDigests = map[string]string{
	"seed=1/scale=0.05": "d59b16e173b056a67a456b760e7caa545cc8f78d922e34e082fbb4aeeeefcefd",
	"seed=1/scale=0.15": "b7ed5fd3ccd26a1bef9182f89bb1e7ecbd2df198c3d5929f78abaea2bdc4a7df",
	"seed=2/scale=0.05": "e71b764bd87c11619544ae3d639a5965ac60fc9a33f4f50b85f5216ada7eaf45",
	"seed=2/scale=0.15": "47b19738e82b21102de51267420c025238547f655435710ff6cae581cc3a9539",
	"seed=3/scale=0.15": "abed6c427a0a668e1eae40c94e00261e03c5e5474cd39016921056eecd91c6f0",
	"seed=4/scale=0.05": "66298ac24e34f280f6e0808be691e82d4896d60ea673601c979b3b187ecc5cc6",
	"seed=4/scale=0.15": "b4ecaa2292d4f4c9a93f826ad5803b6b30864b1fbec4869eddbe0235a45f30f5",
}

// TestReportDigests re-renders each pinned configuration and compares
// digests: one flipped byte anywhere in any table or figure fails the run.
// In -short mode only the first key runs.
func TestReportDigests(t *testing.T) {
	keys := []string{
		"seed=1/scale=0.05", "seed=1/scale=0.15",
		"seed=2/scale=0.05", "seed=2/scale=0.15",
		"seed=3/scale=0.15",
		"seed=4/scale=0.05", "seed=4/scale=0.15",
	}
	if testing.Short() {
		keys = keys[:1]
	}
	for _, key := range keys {
		key := key
		t.Run(key, func(t *testing.T) {
			var seed int64
			var scale float64
			if _, err := fmt.Sscanf(key, "seed=%d/scale=%g", &seed, &scale); err != nil {
				t.Fatalf("bad key %q: %v", key, err)
			}
			sum := sha256.Sum256([]byte(renderStudy(t, seed, scale, 1)))
			if got := hex.EncodeToString(sum[:]); got != reportDigests[key] {
				t.Errorf("report digest %s, want %s", got, reportDigests[key])
			}
		})
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(a, b string) string {
	line, col := 1, 1
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("line %d col %d (%q vs %q)", line, col, a[i], b[i])
		}
		if a[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Sprintf("length %d vs %d", len(a), len(b))
}
