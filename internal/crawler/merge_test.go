package crawler

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestMergeStatsZeroStaysZero pins the no-vantage edge case: merging any
// number of zero-value stats (including none at all) keeps ResponseRate an
// exact 0 — the rate is recomputed from summed counters, never averaged,
// so a 0/0 division can't smuggle a NaN into reports.
func TestMergeStatsZeroStaysZero(t *testing.T) {
	for _, stats := range [][]Stats{
		{},
		{{}},
		{{}, {}, {}},
	} {
		m := MergeStats(stats...)
		if m.ResponseRate != 0 {
			t.Fatalf("merge of %d zero stats: ResponseRate = %v, want exact 0", len(stats), m.ResponseRate)
		}
		if math.IsNaN(m.ResponseRate) || math.IsInf(m.ResponseRate, 0) {
			t.Fatalf("merge of %d zero stats produced %v", len(stats), m.ResponseRate)
		}
		if m.MessagesSent != 0 || m.MessagesReceived != 0 {
			t.Fatalf("merge of zero stats invented traffic: %+v", m)
		}
	}
	// A mix of zero and non-zero vantages must also stay finite and use
	// only the real traffic.
	m := MergeStats(Stats{}, Stats{PingsSent: 10, PingReplies: 4}, Stats{})
	if got, want := m.ResponseRate, 0.4; got != want {
		t.Fatalf("zero+live merge ResponseRate = %v, want %v", got, want)
	}
}

// TestMergeStatsSimultaneousMaxIsMaxNotSum: each vantage's SimultaneousMax
// is a lower bound on users behind one address; vantages can count the same
// users, so the merge takes the largest single bound rather than adding
// them (a sum could exceed the true population).
func TestMergeStatsSimultaneousMaxIsMaxNotSum(t *testing.T) {
	m := MergeStats(
		Stats{SimultaneousMax: 17},
		Stats{SimultaneousMax: 41},
		Stats{SimultaneousMax: 23},
	)
	if m.SimultaneousMax != 41 {
		t.Fatalf("SimultaneousMax = %d, want max 41 (not sum 81)", m.SimultaneousMax)
	}
	if m := MergeStats(Stats{SimultaneousMax: 7}); m.SimultaneousMax != 7 {
		t.Fatalf("single-vantage SimultaneousMax = %d, want 7", m.SimultaneousMax)
	}
}

// TestMergeStatsOrderInvariant: shuffling the vantage order never changes
// the merged statistics — every field is a sum, a max, or derived from
// sums, so vantages can finish in any order.
func TestMergeStatsOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randStats := func() Stats {
		return Stats{
			GetNodesSent:    int64(rng.Intn(1000)),
			GetNodesReplies: int64(rng.Intn(1000)),
			PingsSent:       int64(rng.Intn(1000)),
			PingReplies:     int64(rng.Intn(1000)),
			Timeouts:        int64(rng.Intn(100)),
			Retries:         int64(rng.Intn(100)),
			LateReplies:     int64(rng.Intn(50)),
			Evicted:         int64(rng.Intn(50)),
			ScopeSuppressed: int64(rng.Intn(200)),
			SimultaneousMax: rng.Intn(60),
			PingRoundsRun:   rng.Intn(40),
			SweepsRun:       rng.Intn(40),
		}
	}
	base := make([]Stats, 6)
	for i := range base {
		base[i] = randStats()
	}
	want := MergeStats(base...)
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]Stats(nil), base...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := MergeStats(shuffled...); !reflect.DeepEqual(got, want) {
			t.Fatalf("merge depends on vantage order:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestMergeStatsResponseRateRecomputed: the merged rate reflects combined
// traffic, not the mean of per-vantage rates — a busy lossy vantage must
// outweigh a quiet clean one.
func TestMergeStatsResponseRateRecomputed(t *testing.T) {
	m := MergeStats(
		Stats{PingsSent: 1000, PingReplies: 100}, // 10% on heavy traffic
		Stats{PingsSent: 10, PingReplies: 10},    // 100% on a trickle
	)
	want := 110.0 / 1010.0
	if m.ResponseRate != want {
		t.Fatalf("ResponseRate = %v, want traffic-weighted %v (naive mean would be 0.55)", m.ResponseRate, want)
	}
}
