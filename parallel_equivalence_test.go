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

// reportDigests pins SHA-256 digests of the reports renderStudy produces
// for seven small-world configurations, re-captured when every DHT node
// moved to its by-value splitmix64 generator. They pin every byte of every
// table and figure, so any change to the simulator, the crawler, the
// detectors or the joins shows here. Seed 3's 0.05-scale world has no
// publicly reachable swarm, so only its 0.15 scale is pinned.
var reportDigests = []struct {
	seed   int64
	scale  float64
	digest string
}{
	{1, 0.05, "9b2009653b4650f4b1b74f6f1880b7383ebea48647fe5f7731c2ba4f47c001dc"},
	{1, 0.15, "cfff642e9a4c15ec42f01e5a6f2e5596a4502795680a83ceb4c520316044243c"},
	{2, 0.05, "20c718db7ada2c2376f8aac9d529bc4ae5b327ef1a1e696b66db8ba948c6533f"},
	{2, 0.15, "f010179ee7c0b035868742dab03ec41064b4eb48bfcd4c31c9c307733fb89fad"},
	{3, 0.15, "ceaac91f1db67881ef2eab846295b9692d3efd279085838fb3678b15545d3737"},
	{4, 0.05, "0cdcc320b1f460b002e38748010f948b1fa9937a7953177189643dc29b142a2b"},
	{4, 0.15, "491c9e7e98c3fe40cd6840d0d4e3688716a19502782c46c1e2a14449186c2fb6"},
}

// seqReports memoises the 1-worker render of each reportDigests entry, so
// the equivalence and digest tests below share one sequential study each.
var seqReports = map[int]string{}

// sequentialReport renders reportDigests[i] with 1 worker, once per process.
func sequentialReport(t *testing.T, i int) string {
	if r, ok := seqReports[i]; ok {
		return r
	}
	c := reportDigests[i]
	r := renderStudy(t, c.seed, c.scale, 1)
	seqReports[i] = r
	return r
}

// digestConfigs returns how many reportDigests entries to run: all of them,
// or only the first in -short mode.
func digestConfigs() int {
	if testing.Short() {
		return 1
	}
	return len(reportDigests)
}

// TestParallelEquivalentToSequential renders each pinned configuration with
// 4 workers and checks it against the 1-worker render. Run it under -race:
// with 4 workers the fan-outs genuinely interleave (even on one CPU), so
// this test doubles as the race-detection workload for the whole pipeline.
func TestParallelEquivalentToSequential(t *testing.T) {
	for i, c := range reportDigests[:digestConfigs()] {
		t.Run(fmt.Sprintf("seed=%d/scale=%g", c.seed, c.scale), func(t *testing.T) {
			seq := sequentialReport(t, i)
			if par := renderStudy(t, c.seed, c.scale, 4); par != seq {
				t.Errorf("workers=4 diverged from workers=1 at %s", firstDiff(seq, par))
			}
		})
	}
}

// TestReportDigests checks the 1-worker render of each pinned configuration
// against its digest, so one flipped byte anywhere in any table or figure
// fails the run.
func TestReportDigests(t *testing.T) {
	for i, c := range reportDigests[:digestConfigs()] {
		t.Run(fmt.Sprintf("seed=%d/scale=%g", c.seed, c.scale), func(t *testing.T) {
			sum := sha256.Sum256([]byte(sequentialReport(t, i)))
			if got := hex.EncodeToString(sum[:]); got != c.digest {
				t.Errorf("report digest %s, want %s", got, c.digest)
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
