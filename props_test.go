// Property suite: every generated world — not just the golden seed — must
// satisfy the pipeline's metamorphic relations and ground-truth oracles.
// The default run samples a handful of worlds so `go test ./...` stays
// fast; `-tags slow` (make verify-props) sweeps ≥ 50 seeds across worker
// counts and fault scenarios. On failure the suite shrinks the world spec
// toward the calibrated default before reporting, so the log names the
// tamest world that still breaks the property.
package reuseblock_test

import (
	"errors"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/analysis"
	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/core"
	"github.com/reuseblock/reuseblock/internal/faults"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/parallel"
	"github.com/reuseblock/reuseblock/internal/testkit"
)

// checkWorldProperties runs every relation and oracle against one generated
// world, folding its scores into stats (which may be nil). It returns
// ("degenerate", nil) for worlds that cannot host a crawl — the sweep skips
// those but counts them — and (relation, err) naming the first violated
// invariant otherwise.
func checkWorldProperties(spec testkit.WorldSpec, stats *testkit.SweepStats) (*testkit.StudyRun, string, error) {
	base, err := testkit.RunStudy(spec, 1, nil)
	if testkit.IsDegenerateWorld(err) {
		if stats != nil {
			stats.Degenerate++
		}
		return nil, "degenerate", nil
	}
	if err != nil {
		return nil, "run", err
	}
	if stats != nil {
		stats.AddStudy(base.Report)
	}

	// Seed determinism: an identical second run renders the same bytes.
	again, err := testkit.RunStudy(spec, 1, nil)
	if err != nil {
		return nil, "run", err
	}
	if err := testkit.CheckIdenticalRenders("seed-determinism", base.Rendered, again.Rendered); err != nil {
		return nil, "seed-determinism", err
	}

	// Worker invariance: the parallel pipeline renders the same bytes.
	par, err := testkit.RunStudy(spec, 4, nil)
	if err != nil {
		return nil, "run", err
	}
	if err := testkit.CheckIdenticalRenders("worker-invariance", base.Rendered, par.Rendered); err != nil {
		return nil, "worker-invariance", err
	}

	// Ground-truth oracles.
	o := testkit.Oracle{World: base.Study.World}
	if err := o.CheckNATObservations(base.Study.NATed); err != nil {
		return nil, "nat-lower-bound", err
	}
	if err := o.CheckDynamicDetection(base.Study.RIPE); err != nil {
		return nil, "ripe-detection", err
	}
	if err := o.CheckDurations(base.Report.Durations); err != nil {
		return nil, "duration-windows", err
	}
	if err := o.CheckScores(base.Report); err != nil {
		return nil, "score-bands", err
	}
	if err := testkit.CheckKneeStability(base.Study.RIPE.AllocationCounts, 3); err != nil {
		return nil, "knee-stability", err
	}

	// Feed-permutation invariance at the analysis layer: rebuild the
	// world's collection with feeds rotated and rerun the Fig 5/6 join.
	// (End-to-end permutation would change the world itself — feed RNG
	// streams are keyed by feed index — so the relation lives here.)
	if err := checkPermutationInvariance(base); err != nil {
		return nil, "feed-permutation", err
	}

	// Listing monotonicity: one extra reused listing never decreases any
	// reuse count and never makes a feed *lose* its reused addresses.
	if err := checkListingMonotonicity(base); err != nil {
		return nil, "listing-monotonicity", err
	}

	return base, "", nil
}

func checkPermutationInvariance(base *testkit.StudyRun) error {
	col := base.Study.World.Collection
	n := col.Registry().Len()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = (i + n/2 + 1) % n
	}
	permuted, err := testkit.PermuteCollection(col, perm)
	if err != nil {
		return err
	}
	in := *base.Study.Inputs
	in.Collection = permuted
	return testkit.CheckPerListPermutation(
		base.Report.PerList, analysis.ComputePerListReuse(&in), perm)
}

func checkListingMonotonicity(base *testkit.StudyRun) error {
	col := base.Study.World.Collection
	clone, err := testkit.CloneCollection(col)
	if err != nil {
		return err
	}
	// Add one NATed address to the first feed and day where it is absent.
	var addr iputil.Addr
	feed, day := -1, 0
	for a := range base.Study.Inputs.NATUsers {
		for fi := 0; fi < col.Registry().Len() && feed < 0; fi++ {
			if !col.Present(fi, 0, a) {
				addr, feed = a, fi
			}
		}
		if feed >= 0 {
			break
		}
	}
	if feed < 0 {
		return nil // every feed lists every NATed address on day 0 — nothing to add
	}
	one := iputil.NewSet()
	one.Add(addr)
	if err := clone.Record(day, feed, one); err != nil {
		return err
	}
	in := *base.Study.Inputs
	in.Collection = clone
	return testkit.CheckPerListMonotone(base.Report.PerList, analysis.ComputePerListReuse(&in))
}

// checkFaultTolerance runs the bursty scenario against the same spec and
// holds the NAT recall inside the pinned tolerance band of the fault-free
// run (same band the seed-1 resilience suite pins for bursty).
func checkFaultTolerance(spec testkit.WorldSpec, base *testkit.StudyRun) error {
	scn, err := faults.Lookup("bursty")
	if err != nil {
		return err
	}
	faulted, err := testkit.RunStudy(spec, 1, scn)
	if err != nil {
		return err
	}
	return testkit.CheckToleranceBand("fault-tolerance",
		base.Report.NATScore.Recall, faulted.Report.NATScore.Recall, 0.15)
}

// reportShrunk shrinks a failing spec to the tamest still-failing world and
// fails the test with both specs in the log.
func reportShrunk(t *testing.T, spec testkit.WorldSpec, relation string, err error) {
	t.Helper()
	shrunk := testkit.Shrink(spec, func(s testkit.WorldSpec) bool {
		_, rel, serr := checkWorldProperties(s, nil)
		return serr != nil && rel == relation
	}, 40)
	t.Fatalf("%s violated\n  spec:   %s\n  shrunk: %s\n  error:  %v", relation, spec, shrunk, err)
}

// TestWorldProperties is the fast slice of the property sweep: a few
// generated worlds through every relation and oracle on each `go test`.
func TestWorldProperties(t *testing.T) {
	seeds := []int64{101, 102, 103, 104}
	if testing.Short() {
		seeds = seeds[:1]
	}
	stats := &testkit.SweepStats{}
	for _, genSeed := range seeds {
		spec := testkit.GenWorldSpec(genSeed)
		t.Logf("world %d: %s", genSeed, spec)
		_, rel, err := checkWorldProperties(spec, stats)
		if rel == "degenerate" {
			continue
		}
		if err != nil {
			reportShrunk(t, spec, rel, err)
		}
	}
	if stats.Worlds == 0 {
		t.Fatalf("all %d generated worlds were degenerate — generator regression", len(seeds))
	}
	if err := stats.CheckEnsemble(); err != nil {
		t.Fatal(err)
	}
}

// TestWorldFaultTolerance holds one generated world's bursty-scenario recall
// inside the pinned band. Kept out of TestWorldProperties so the fast sweep
// above stays a pure fault-free relation check.
func TestWorldFaultTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("fault band is covered per-seed by the resilience suite in short mode")
	}
	spec := testkit.GenWorldSpec(101)
	base, err := testkit.RunStudy(spec, 1, nil)
	if testkit.IsDegenerateWorld(err) {
		t.Skip("world 101 is degenerate")
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFaultTolerance(spec, base); err != nil {
		t.Fatalf("bursty tolerance band: %v", err)
	}
}

// TestStudySeedsConfirmNATs runs the benchmark's study over its pinned
// world (world seed 1, scale 1, a 12 h crawl) for every study seed from 1
// to 40 and holds each to the benchmark's gate: the crawl confirms at least
// one NATed address, every confirmed address passes the NAT oracle, and the
// RIPE pipeline passes the dynamic-detection oracle. The crawl's bootstrap
// never churns, so no seed can strand the crawler with a dead entry point
// and an empty result.
func TestStudySeedsConfirmNATs(t *testing.T) {
	if testing.Short() {
		t.Skip("40 scale-1 crawls")
	}
	wp := blgen.DefaultParams(1)
	wp.Scale = 1
	w := blgen.Generate(wp)
	orc := testkit.Oracle{World: w}
	errs := parallel.Map(0, 40, func(i int) error {
		st := core.NewStudyFromWorld(w, core.Config{Seed: int64(i + 1), CrawlDuration: 12 * time.Hour,
			SkipICMP: true, Workers: 1})
		if _, err := st.Run(); err != nil {
			return err
		}
		var none error
		if len(st.NATed) == 0 {
			none = errors.New("confirmed no NATed address")
		}
		return errors.Join(orc.CheckNATObservations(st.NATed), orc.CheckDynamicDetection(st.RIPE), none)
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("study seed %d: %v", i+1, err)
		}
	}
}
