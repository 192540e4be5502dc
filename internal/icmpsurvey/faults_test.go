package icmpsurvey

import (
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

// TestProbeLossRetransmits checks that probe loss with bounded retransmits
// degrades the survey gracefully: retransmissions are counted, loss-free
// behaviour is unchanged, and classification survives moderate loss.
func TestProbeLossRetransmits(t *testing.T) {
	w := &leaseWorld{
		dynamic: iputil.MustParsePrefix("10.1.0.0/24"),
		static:  iputil.MustParsePrefix("10.2.0.0/24"),
		period:  6 * time.Hour,
		onFrac:  0.5,
	}
	base := Config{
		Blocks:   []iputil.Prefix{w.dynamic, w.static},
		Start:    start,
		Duration: 14 * 24 * time.Hour,
		Interval: time.Hour,
	}
	clean := Run(w, base)

	lossy := base
	lossy.ProbeLoss = 0.15
	lossy.Retransmits = 2
	lossy.Seed = 42
	faulty := Run(w, lossy)

	if clean.Retransmissions != 0 {
		t.Fatalf("loss-free survey retransmitted %d times", clean.Retransmissions)
	}
	if faulty.Retransmissions == 0 {
		t.Fatal("lossy survey never retransmitted")
	}
	if faulty.ProbesSent <= clean.ProbesSent {
		t.Fatalf("retransmits must cost probes: %d vs %d", faulty.ProbesSent, clean.ProbesSent)
	}
	// With two retransmits the per-round miss probability is 0.15^3; the
	// classifier's verdicts must survive.
	if !faulty.DynamicBlocks.Contains(w.dynamic) {
		t.Error("dynamic block lost under moderate probe loss")
	}
	if faulty.DynamicBlocks.Contains(w.static) {
		t.Error("static block misclassified under probe loss")
	}
}

// TestProbeLossWorkerInvariance: loss draws keyed by (seed, address, round)
// make the lossy survey identical for any worker count.
func TestProbeLossWorkerInvariance(t *testing.T) {
	w := &leaseWorld{
		dynamic: iputil.MustParsePrefix("10.1.0.0/24"),
		static:  iputil.MustParsePrefix("10.2.0.0/24"),
		period:  6 * time.Hour,
		onFrac:  0.5,
	}
	run := func(workers int) *Result {
		return Run(w, Config{
			Blocks:      []iputil.Prefix{w.dynamic, w.static},
			Start:       start,
			Duration:    7 * 24 * time.Hour,
			Interval:    time.Hour,
			ProbeLoss:   0.2,
			Retransmits: 1,
			Seed:        7,
			Workers:     workers,
		})
	}
	seq, par := run(1), run(4)
	if seq.ProbesSent != par.ProbesSent || seq.Retransmissions != par.Retransmissions {
		t.Fatalf("probe accounting diverged: %d/%d vs %d/%d",
			seq.ProbesSent, seq.Retransmissions, par.ProbesSent, par.Retransmissions)
	}
	if len(seq.Blocks) != len(par.Blocks) {
		t.Fatalf("block counts diverged")
	}
	for i := range seq.Blocks {
		if seq.Blocks[i] != par.Blocks[i] {
			t.Fatalf("block %d diverged: %+v vs %+v", i, seq.Blocks[i], par.Blocks[i])
		}
	}
	for a, m := range seq.PerAddr {
		pm := par.PerAddr[a]
		if pm == nil || *pm != *m {
			t.Fatalf("per-addr metrics diverged at %v", a)
		}
	}
}
