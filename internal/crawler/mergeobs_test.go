package crawler

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

// refMerge is the pre-refactor map-based merge, kept as the oracle.
func refMerge(groups ...[]NATObservation) []NATObservation {
	byAddr := make(map[iputil.Addr]NATObservation)
	for _, group := range groups {
		for _, o := range group {
			cur, ok := byAddr[o.Addr]
			if !ok {
				byAddr[o.Addr] = o
				continue
			}
			if o.Users > cur.Users {
				cur.Users = o.Users
			}
			if o.PortsSeen > cur.PortsSeen {
				cur.PortsSeen = o.PortsSeen
			}
			if o.FirstConfirmed.Before(cur.FirstConfirmed) {
				cur.FirstConfirmed = o.FirstConfirmed
			}
			byAddr[o.Addr] = cur
		}
	}
	out := make([]NATObservation, 0, len(byAddr))
	for _, o := range byAddr {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

func genObsGroups(rng *rand.Rand, groups, perGroup int) [][]NATObservation {
	base := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	out := make([][]NATObservation, groups)
	for g := range out {
		for i := 0; i < perGroup; i++ {
			// Small address space forces heavy cross-group overlap.
			out[g] = append(out[g], NATObservation{
				Addr:           iputil.Addr(rng.Intn(perGroup * 2)),
				Users:          2 + rng.Intn(9),
				PortsSeen:      1 + rng.Intn(30),
				FirstConfirmed: base.Add(time.Duration(rng.Intn(3600)) * time.Second),
			})
		}
		sort.Slice(out[g], func(i, j int) bool { return out[g][i].Addr < out[g][j].Addr })
	}
	return out
}

func obsEqual(t *testing.T, got, want []NATObservation, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d observations, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: observation %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestMergeObservationsMatchesReference pins the k-way merge to the map-based
// oracle over randomized overlapping sorted groups.
func TestMergeObservationsMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		groups := genObsGroups(rng, 1+rng.Intn(5), 1+rng.Intn(200))
		want := refMerge(groups...)
		obsEqual(t, MergeObservations(groups...), want, "sorted inputs")
	}
}

// TestMergeObservationsOrderInvariant: every combining op is a max or min,
// so permuting the groups must not change a single byte of the result.
func TestMergeObservationsOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	groups := genObsGroups(rng, 4, 300)
	want := MergeObservations(groups...)
	for trial := 0; trial < 8; trial++ {
		perm := rng.Perm(len(groups))
		permuted := make([][]NATObservation, len(groups))
		for i, p := range perm {
			permuted[i] = groups[p]
		}
		obsEqual(t, MergeObservations(permuted...), want, "permuted groups")
	}
}

// TestMergeObservationsAllocsPerCall: on sorted groups — the crawl
// pipeline's steady state — the result slice is the merge's only allocation.
func TestMergeObservationsAllocsPerCall(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	groups := genObsGroups(rng, 4, 2000)
	var got []NATObservation
	allocs := testing.AllocsPerRun(20, func() {
		got = MergeObservations(groups...)
	})
	if allocs > 1 {
		t.Fatalf("MergeObservations allocated %.1f objects/call on sorted input, want <= 1", allocs)
	}
	obsEqual(t, got, refMerge(groups...), "merge result")
}

var mergeSink []NATObservation

func BenchmarkMergeObservations(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	groups := genObsGroups(rng, 4, 50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mergeSink = MergeObservations(groups...)
	}
}

func BenchmarkMergeObservationsMap(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	groups := genObsGroups(rng, 4, 50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refMerge(groups...)
	}
}
