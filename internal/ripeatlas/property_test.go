package ripeatlas

import (
	"math/rand"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

// genRandomLogs builds a random but well-formed log: probes connect and
// disconnect with random addresses from small pools.
func genRandomLogs(rng *rand.Rand, probes, events int) []LogEntry {
	var out []LogEntry
	base := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	for p := 1; p <= probes; p++ {
		pool := iputil.PrefixFrom(iputil.AddrFrom4(10, byte(p), 0, 0), 24)
		asn := 100 + p%3
		at := base
		for e := 0; e < events; e++ {
			at = at.Add(time.Duration(1+rng.Intn(48)) * time.Hour)
			ev := EventConnect
			if rng.Intn(3) == 0 {
				ev = EventDisconnect
			}
			out = append(out, LogEntry{
				UnixNano: at.UnixNano(),
				ProbeID:  int32(p),
				Event:    ev,
				Addr:     pool.Nth(1 + rng.Intn(200)),
				ASN:      int32(asn),
			})
		}
	}
	return out
}

// TestBuildHistoriesInvariants checks structural invariants over random logs.
func TestBuildHistoriesInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		logs := genRandomLogs(rng, 1+rng.Intn(6), 1+rng.Intn(40))
		hist := BuildHistories(logs)
		for id, h := range hist {
			if h.ProbeID != id {
				t.Fatalf("history keyed %d has ProbeID %d", id, h.ProbeID)
			}
			if h.Last.Before(h.First) {
				t.Fatalf("probe %d: Last before First", id)
			}
			// Allocations are distinct.
			seen := map[iputil.Addr]bool{}
			for _, a := range h.Allocations {
				if seen[a] {
					t.Fatalf("probe %d: duplicate allocation %v", id, a)
				}
				seen[a] = true
			}
			// Changes count can never exceed connect events minus one and
			// never be negative; each change implies at least two
			// allocations unless it revisits an address.
			if len(h.Changes) > 0 && len(h.Allocations) < 2 {
				t.Fatalf("probe %d: %d changes but %d allocations",
					id, len(h.Changes), len(h.Allocations))
			}
			// Changes timestamps are non-decreasing.
			for i := 1; i < len(h.Changes); i++ {
				if h.Changes[i].Before(h.Changes[i-1]) {
					t.Fatalf("probe %d: changes out of order", id)
				}
			}
			// ASNs are distinct.
			asns := map[int]bool{}
			for _, a := range h.ASNs {
				if asns[a] {
					t.Fatalf("probe %d: duplicate ASN %d", id, a)
				}
				asns[a] = true
			}
		}
	}
}

// TestDetectStagesMonotone: each pipeline stage can only shrink the probe
// population, and every stage's address set is covered by the previous one.
func TestDetectStagesMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		logs := genRandomLogs(rng, 8, 60)
		res := Detect(logs, DetectOptions{MinAllocations: 3})
		if res.SameASProbes > res.TotalProbes ||
			res.FrequentProbes > res.SameASProbes ||
			res.DailyProbes > res.FrequentProbes {
			t.Fatalf("funnel not monotone: %d >= %d >= %d >= %d",
				res.TotalProbes, res.SameASProbes, res.FrequentProbes, res.DailyProbes)
		}
		if res.MultiASProbes+res.NoChangeProbes+res.SameASProbes != res.TotalProbes {
			t.Fatalf("stage partition broken: %d + %d + %d != %d",
				res.MultiASProbes, res.NoChangeProbes, res.SameASProbes, res.TotalProbes)
		}
		for _, a := range res.DynamicAddresses.Sorted() {
			if !res.FrequentAddresses.Contains(a) {
				t.Fatalf("dynamic address %v not in frequent set", a)
			}
			if !res.SameASAddresses.Contains(a) {
				t.Fatalf("dynamic address %v not in same-AS set", a)
			}
			if !res.AllAddresses.Contains(a) {
				t.Fatalf("dynamic address %v not in all set", a)
			}
			if !res.DynamicPrefixes.Covers(a) {
				t.Fatalf("dynamic address %v not covered by its prefixes", a)
			}
		}
	}
}

// TestDetectLogOrderInsensitive: shuffling the input log must not change
// the outcome (SortLogs normalises).
func TestDetectLogOrderInsensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	logs := genRandomLogs(rng, 6, 50)
	a := Detect(logs, DetectOptions{MinAllocations: 4})
	shuffled := make([]LogEntry, len(logs))
	copy(shuffled, logs)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	b := Detect(shuffled, DetectOptions{MinAllocations: 4})
	if a.TotalProbes != b.TotalProbes || a.DailyProbes != b.DailyProbes ||
		a.DynamicAddresses.Len() != b.DynamicAddresses.Len() ||
		a.DynamicPrefixes.Len() != b.DynamicPrefixes.Len() {
		t.Fatalf("order sensitivity: %+v vs %+v", a.DailyProbes, b.DailyProbes)
	}
}
