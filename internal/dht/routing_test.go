package dht

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

// sortedClosest is the reference closest: gather every entry, sort by XOR
// distance to target, keep the first n.
func sortedClosest(rt *routingTable, target krpc.NodeID, n int) []krpc.NodeInfo {
	var all []krpc.NodeInfo
	for i := range rt.bkts {
		for _, e := range rt.bkts[i] {
			all = append(all, e.info)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		return all[i].ID.Less(all[j].ID, target)
	})
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// randomTable fills a table from rng. Half the tables cluster their IDs
// around self, so the low buckets fill and overflow too, and a tenth of the
// adds refresh an ID already in the table.
func randomTable(rng *rand.Rand) *routingTable {
	var self krpc.NodeID
	rng.Read(self[:])
	rt := newRoutingTable(self, time.Minute)
	clustered := rng.Intn(2) == 0
	var ids []krpc.NodeID
	for i, adds := 0, rng.Intn(200); i < adds; i++ {
		var id krpc.NodeID
		if len(ids) > 0 && rng.Intn(10) == 0 {
			id = ids[rng.Intn(len(ids))]
		} else {
			rng.Read(id[:])
			if clustered {
				copy(id[:rng.Intn(3)], self[:])
			}
			ids = append(ids, id)
		}
		at := netsim.Epoch.Add(time.Duration(rng.Intn(3600)) * time.Second)
		rt.add(krpc.NodeInfo{ID: id, Addr: iputil.Addr(rng.Uint32()), Port: uint16(rng.Intn(65536))}, at)
	}
	return rt
}

// TestClosestMatchesSort checks the insertion into a caller's buffer against
// the sort-based reference over random tables, targets and buffer sizes:
// with distinct IDs in a table the order is total, so both must agree
// entry for entry.
func TestClosestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		rt := randomTable(rng)
		var target krpc.NodeID
		switch rng.Intn(3) {
		case 0:
			target = rt.self
		case 1:
			if infos := sortedClosest(rt, target, 1<<30); len(infos) > 0 {
				target = infos[rng.Intn(len(infos))].ID // a table member
				break
			}
			fallthrough
		default:
			rng.Read(target[:])
		}
		n := rng.Intn(2 * BucketSize)
		got := rt.closest(target, make([]krpc.NodeInfo, n))
		want := sortedClosest(rt, target, n)
		if len(got) != len(want) {
			t.Fatalf("trial %d: closest(n=%d) returned %d nodes, want %d (table %d)",
				trial, n, len(got), len(want), rt.size())
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: closest(n=%d)[%d] = %+v, want %+v", trial, n, i, got[i], want[i])
			}
		}
	}
}

// TestClosestAllocationFree pins that answering find_node from a stack
// buffer allocates nothing, however full the table.
func TestClosestAllocationFree(t *testing.T) {
	rt := randomTable(rand.New(rand.NewSource(2)))
	if rt.size() < BucketSize {
		t.Fatalf("table holds %d entries, want at least %d", rt.size(), BucketSize)
	}
	var target krpc.NodeID
	allocs := testing.AllocsPerRun(100, func() {
		var buf [BucketSize]krpc.NodeInfo
		target[0]++
		if got := rt.closest(target, buf[:]); len(got) != BucketSize {
			t.Fatalf("closest returned %d nodes", len(got))
		}
	})
	if allocs != 0 {
		t.Errorf("closest allocates %.1f times per call, want 0", allocs)
	}
}
