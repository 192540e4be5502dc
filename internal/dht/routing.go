package dht

import (
	"time"

	"github.com/reuseblock/reuseblock/internal/krpc"
)

// BucketSize is Kademlia's k: the per-bucket capacity and the number of
// neighbours returned by find_node. The paper notes a new BitTorrent user
// learns eight neighbours — this constant.
const BucketSize = 8

// tableEntry is pointer-free, so the garbage collector never scans a
// bucket: at paper scale the buckets are the swarm's largest heap owner.
// lastSeen is the clock's time in Unix nanoseconds; on a real network that
// is wall-clock time, so staleness follows a step of the host's clock.
type tableEntry struct {
	info     krpc.NodeInfo
	lastSeen int64
}

// routingTable is a 160-bucket Kademlia table keyed by XOR distance from
// the owner's ID. Storage is sparse: a simulated node only ever populates a
// handful of bucket indices (mesh degree 8 plus keepalive churn), so the
// table keeps a sorted list of occupied indices instead of a fixed
// [160][]tableEntry — that fixed array alone cost 3.8 KiB of slice headers
// per node, a third of the per-host footprint at paper scale. All walks run
// in ascending bucket index, exactly the order the fixed array gave, so
// eviction, keepalive selection, and closest() collection are unchanged.
type routingTable struct {
	self krpc.NodeID
	occ  []uint8        // sorted occupied bucket indices (0..159)
	bkts [][]tableEntry // parallel to occ
	// staleAfter is how long an entry may go unseen before a newcomer may
	// evict it. Real tables ping before evicting; the simplification keeps
	// stale entries around, which is exactly the "stale information"
	// phenomenon the crawler must disambiguate (§3.1).
	staleAfter time.Duration
}

func newRoutingTable(self krpc.NodeID, staleAfter time.Duration) *routingTable {
	rt := new(routingTable)
	rt.init(self, staleAfter)
	return rt
}

// init prepares an embedded (by-value) table in place.
func (rt *routingTable) init(self krpc.NodeID, staleAfter time.Duration) {
	if staleAfter <= 0 {
		staleAfter = 15 * time.Minute
	}
	rt.self, rt.staleAfter = self, staleAfter
}

// findOcc returns the position of bucket idx in rt.occ and whether it is
// occupied; when absent the position is the insertion point.
func (rt *routingTable) findOcc(idx uint8) (int, bool) {
	lo, hi := 0, len(rt.occ)
	for lo < hi {
		mid := (lo + hi) / 2
		if rt.occ[mid] < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(rt.occ) && rt.occ[lo] == idx
}

// add inserts or refreshes a node; full buckets evict their most stale entry
// only if it is older than staleAfter.
func (rt *routingTable) add(info krpc.NodeInfo, at time.Time) {
	now := at.UnixNano()
	idx := rt.self.BucketIndex(info.ID)
	if idx < 0 {
		return // ourselves
	}
	p, ok := rt.findOcc(uint8(idx))
	if !ok {
		rt.occ = append(rt.occ, 0)
		copy(rt.occ[p+1:], rt.occ[p:])
		rt.occ[p] = uint8(idx)
		rt.bkts = append(rt.bkts, nil)
		copy(rt.bkts[p+1:], rt.bkts[p:])
		rt.bkts[p] = []tableEntry{{info, now}}
		return
	}
	bucket := rt.bkts[p]
	for i := range bucket {
		if bucket[i].info.ID.Equal(&info.ID) {
			// Same node; update endpoint (it may have rebooted onto a
			// new port) and refresh.
			bucket[i].info = info
			bucket[i].lastSeen = now
			return
		}
	}
	if len(bucket) < BucketSize {
		rt.bkts[p] = append(bucket, tableEntry{info, now})
		return
	}
	oldest := 0
	for i := 1; i < len(bucket); i++ {
		if bucket[i].lastSeen < bucket[oldest].lastSeen {
			oldest = i
		}
	}
	if now-bucket[oldest].lastSeen > int64(rt.staleAfter) {
		bucket[oldest] = tableEntry{info, now}
	}
}

// closest fills buf with the len(buf) nodes nearest target by XOR distance,
// nearest first, and returns the filled prefix. IDs in a table are distinct,
// so insertion gives the order a full sort would, with no allocation.
func (rt *routingTable) closest(target krpc.NodeID, buf []krpc.NodeInfo) []krpc.NodeInfo {
	n := 0
	for i := range rt.bkts {
		for _, e := range rt.bkts[i] {
			if n == len(buf) {
				if n == 0 || !e.info.ID.Less(buf[n-1].ID, target) {
					continue
				}
				n-- // e displaces the farthest kept node
			}
			j := n
			for ; j > 0 && e.info.ID.Less(buf[j-1].ID, target); j-- {
				buf[j] = buf[j-1]
			}
			buf[j] = e.info
			n++
		}
	}
	return buf[:n]
}

// size returns the number of entries in the table.
func (rt *routingTable) size() int {
	n := 0
	for i := range rt.bkts {
		n += len(rt.bkts[i])
	}
	return n
}

// randomEntry returns an arbitrary entry for keepalive pings; ok is false if
// the table is empty. pick is an arbitrary non-negative selector (callers
// pass rng output) so selection stays deterministic under a seeded RNG.
func (rt *routingTable) randomEntry(pick int) (krpc.NodeInfo, bool) {
	n := rt.size()
	if n == 0 {
		return krpc.NodeInfo{}, false
	}
	pick %= n
	for i := range rt.bkts {
		if pick < len(rt.bkts[i]) {
			return rt.bkts[i][pick].info, true
		}
		pick -= len(rt.bkts[i])
	}
	return krpc.NodeInfo{}, false
}
