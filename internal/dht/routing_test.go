package dht

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"time"
	"unsafe"

	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

// sortedClosest is the reference closest: gather every entry, sort by XOR
// distance to target, keep the first n.
func sortedClosest(rt *routingTable, target krpc.NodeID, n int) []krpc.NodeInfo {
	var all []krpc.NodeInfo
	for _, e := range rt.entries {
		all = append(all, e.info)
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

// bucketTable is the reference routing table: a fixed [160][]tableEntry
// with add, size and randomEntry as they were written against it, walking
// buckets in ascending index. closest is sortedClosest's full sort.
type bucketTable struct {
	self       krpc.NodeID
	staleAfter time.Duration
	buckets    [160][]tableEntry
}

// addOutcome says what an add did to the reference table.
type addOutcome int

const (
	addedSelf addOutcome = iota
	refreshed
	inserted
	evicted  // a full bucket's stale entry made way
	rejected // a full bucket with no stale entry kept its entries
)

func (m *bucketTable) add(info krpc.NodeInfo, at time.Time) addOutcome {
	now := at.UnixNano()
	idx := m.self.BucketIndex(info.ID)
	if idx < 0 {
		return addedSelf
	}
	bucket := m.buckets[idx]
	for i := range bucket {
		if bucket[i].info.ID == info.ID {
			bucket[i].info, bucket[i].lastSeen = info, now
			return refreshed
		}
	}
	e := tableEntry{info: info, bucket: uint8(idx), lastSeen: now}
	if len(bucket) < BucketSize {
		m.buckets[idx] = append(bucket, e)
		return inserted
	}
	oldest := 0
	for i := 1; i < len(bucket); i++ {
		if bucket[i].lastSeen < bucket[oldest].lastSeen {
			oldest = i
		}
	}
	if now-bucket[oldest].lastSeen > int64(m.staleAfter) {
		bucket[oldest] = e
		return evicted
	}
	return rejected
}

// all returns every entry in walk order.
func (m *bucketTable) all() []tableEntry {
	var out []tableEntry
	for _, b := range m.buckets {
		out = append(out, b...)
	}
	return out
}

func (m *bucketTable) randomEntry(pick int) (krpc.NodeInfo, bool) {
	n := len(m.all())
	if n == 0 {
		return krpc.NodeInfo{}, false
	}
	pick %= n
	for _, b := range m.buckets {
		if pick < len(b) {
			return b[pick].info, true
		}
		pick -= len(b)
	}
	return krpc.NodeInfo{}, false
}

// routingOps turns bytes into a stream of table operations: new IDs in a
// few buckets (the low ones fill and overflow), rejoins of known IDs on new
// endpoints, adds of the owner's own ID, and clock steps on both sides of
// staleAfter.
type routingOps struct {
	data []byte
	rng  *rand.Rand // the bits below an ID's bucket bit
}

func (o *routingOps) byte() (byte, bool) {
	if len(o.data) == 0 {
		return 0, false
	}
	b := o.data[0]
	o.data = o.data[1:]
	return b, true
}

// idInBucket returns an ID in bucket b of self's table: it differs from
// self in bit b, agrees above it, and draws the bits below it from rng.
func idInBucket(self krpc.NodeID, b int, rng *rand.Rand) krpc.NodeID {
	id := self
	for bit := 0; bit <= b; bit++ {
		if bit == b || rng.Intn(2) == 0 {
			id[krpc.IDLen-1-bit/8] ^= 1 << (bit % 8)
		}
	}
	return id
}

// runRoutingModel drives a routingTable and a bucketTable with the same
// operations, compares them after each one, and counts the outcomes.
func runRoutingModel(t *testing.T, data []byte) (outcomes [rejected + 1]int) {
	t.Helper()
	o := &routingOps{data: data, rng: rand.New(rand.NewSource(int64(len(data))))}
	var self krpc.NodeID
	o.rng.Read(self[:])
	const stale = time.Minute
	rt := newRoutingTable(self, stale)
	model := &bucketTable{self: self, staleAfter: stale}
	now := netsim.Epoch
	var known []krpc.NodeID
	// A handful of buckets, so several fill: bucket 3 holds only eight
	// IDs, and the high ones hold more than a bucket's worth. Bucket 159
	// takes half the new IDs, so it fills well inside staleAfter.
	buckets := [...]int{159, 3, 4, 9, 100, 157, 158, 159, 159, 159, 159, 159, 159}
	for op := 0; ; op++ {
		k, ok := o.byte()
		if !ok {
			return outcomes
		}
		arg, _ := o.byte()
		info := krpc.NodeInfo{Addr: iputil.Addr(o.rng.Uint32()), Port: uint16(arg) << 8}
		switch k := k % 64; {
		case k < 24: // a new ID in one of the buckets
			info.ID = idInBucket(self, buckets[int(arg)%len(buckets)], o.rng)
			known = append(known, info.ID)
		case k < 40: // a known ID rejoins, maybe on a new endpoint
			if len(known) == 0 {
				continue
			}
			info.ID = known[int(arg)%len(known)]
		case k < 42: // the owner itself
			info.ID = self
		case k < 63: // time passes, well short of staleAfter
			now = now.Add(time.Duration(arg) * stale / 4096)
			continue
		default: // time passes beyond staleAfter, now and then
			now = now.Add(stale + time.Duration(arg)*time.Second)
			continue
		}
		rt.add(info, now)
		outcomes[model.add(info, now)]++
		compareRoutingTables(t, op, rt, model, known)
	}
}

// compareRoutingTables requires rt to hold model's entries in model's walk
// order and to answer size, closest and randomEntry as the model does.
func compareRoutingTables(t *testing.T, op int, rt *routingTable, model *bucketTable, known []krpc.NodeID) {
	t.Helper()
	want := model.all()
	if rt.size() != len(want) {
		t.Fatalf("op %d: size %d, model %d", op, rt.size(), len(want))
	}
	for i := range want {
		if rt.entries[i] != want[i] {
			t.Fatalf("op %d: entry %d = %+v, model %+v", op, i, rt.entries[i], want[i])
		}
	}
	for pick := 0; pick <= 2*len(want); pick++ {
		got, gotOK := rt.randomEntry(pick)
		exp, expOK := model.randomEntry(pick)
		if got != exp || gotOK != expOK {
			t.Fatalf("op %d: randomEntry(%d) = %+v %v, model %+v %v", op, pick, got, gotOK, exp, expOK)
		}
	}
	targets := []krpc.NodeID{rt.self, {}}
	if len(known) > 0 {
		targets = append(targets, known[op%len(known)])
	}
	for _, target := range targets {
		for _, n := range []int{0, 1, BucketSize, 3 * BucketSize} {
			got := rt.closest(target, make([]krpc.NodeInfo, n))
			exp := sortedClosest(rt, target, n)
			if len(got) != len(exp) {
				t.Fatalf("op %d: closest(n=%d) returned %d nodes, model %d", op, n, len(got), len(exp))
			}
			for i := range exp {
				if got[i] != exp[i] {
					t.Fatalf("op %d: closest(n=%d)[%d] = %+v, model %+v", op, n, i, got[i], exp[i])
				}
			}
		}
	}
}

// TestRoutingTableMatchesBuckets runs random add streams against the
// [160][]tableEntry reference: refreshes, endpoint changes on rejoin,
// full buckets with stale and fresh eviction candidates, and the owner's
// own ID.
func TestRoutingTableMatchesBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var outcomes [rejected + 1]int
	for trial := 0; trial < 20; trial++ {
		data := make([]byte, 2*(50+rng.Intn(300)))
		rng.Read(data)
		for k, n := range runRoutingModel(t, data) {
			outcomes[k] += n
		}
	}
	t.Logf("adds by outcome (self, refresh, insert, evict, reject): %v", outcomes)
	for k, n := range outcomes {
		if n == 0 {
			t.Errorf("no add had outcome %d (self, refresh, insert, evict, reject)", k)
		}
	}
}

// FuzzRoutingTable is TestRoutingTableMatchesBuckets on fuzzed streams.
func FuzzRoutingTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 6, 30, 6, 40, 0, 63, 0, 2, 6})
	f.Add(bytes.Repeat([]byte{0, 0, 50, 200, 2, 0, 63, 1, 30, 1, 41, 0, 1, 1}, 20))
	f.Fuzz(func(t *testing.T, data []byte) {
		runRoutingModel(t, data)
	})
}

// TestTableEntrySize pins an entry at 40 bytes: the bucket index rides in
// padding the entry already had.
func TestTableEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(tableEntry{}); got != 40 {
		t.Errorf("tableEntry is %d bytes, want 40", got)
	}
}
