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
// table: at paper scale the tables are the swarm's largest heap owner.
// lastSeen is the simulated clock's time in Unix nanoseconds.
// bucket sits in the padding between info and lastSeen, so an entry is 40
// bytes either way.
type tableEntry struct {
	info     krpc.NodeInfo
	bucket   uint8 // the owner's BucketIndex of info.ID
	lastSeen int64
}

// routingTable is a 160-bucket Kademlia table keyed by XOR distance from
// the owner's ID, stored as one run of entries sorted by bucket index, each
// bucket's entries in insertion order. A simulated node only ever populates
// a handful of buckets (mesh degree 8 plus keepalive churn), so a fixed
// [160][]tableEntry would cost 3.8 KiB of slice headers per node, and a
// slice per occupied bucket a header load before each bucket's entries.
// add finds a node's bucket by scanning back from the end of the run, where
// the high buckets sit: half of all IDs fall in bucket 159 and a quarter in
// 158, so the scan mostly reads the lines it then compares IDs in. Every
// walk goes in ascending bucket index, the order the fixed array gives, so
// eviction, keepalive selection and closest() are unchanged.
type routingTable struct {
	self    krpc.NodeID
	entries []tableEntry
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

// add inserts or refreshes a node; full buckets evict their most stale entry
// only if it is older than staleAfter.
func (rt *routingTable) add(info krpc.NodeInfo, at time.Time) {
	now := at.UnixNano()
	idx := rt.self.BucketIndex(info.ID)
	if idx < 0 {
		return // ourselves
	}
	b := uint8(idx)
	es := rt.entries
	end := len(es) // one past bucket b's last entry
	for end > 0 && es[end-1].bucket > b {
		end--
	}
	lo := end // bucket b's first entry
	for lo > 0 && es[lo-1].bucket == b {
		lo--
		if es[lo].info.ID.Equal(&info.ID) {
			// Same node; update endpoint (it may have rebooted onto a
			// new port) and refresh.
			es[lo].info = info
			es[lo].lastSeen = now
			return
		}
	}
	if end-lo < BucketSize {
		es = append(es, tableEntry{})
		copy(es[end+1:], es[end:])
		es[end] = tableEntry{info: info, bucket: b, lastSeen: now}
		rt.entries = es
		return
	}
	oldest := lo
	for i := lo + 1; i < end; i++ {
		if es[i].lastSeen < es[oldest].lastSeen {
			oldest = i
		}
	}
	if now-es[oldest].lastSeen > int64(rt.staleAfter) {
		es[oldest] = tableEntry{info: info, bucket: b, lastSeen: now}
	}
}

// closest fills buf with the len(buf) nodes nearest target by XOR distance,
// nearest first, and returns the filled prefix. IDs in a table are distinct,
// so insertion gives the order a full sort would, with no allocation.
func (rt *routingTable) closest(target krpc.NodeID, buf []krpc.NodeInfo) []krpc.NodeInfo {
	n := 0
	for i := range rt.entries {
		e := &rt.entries[i]
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
	return buf[:n]
}

// size returns the number of entries in the table.
func (rt *routingTable) size() int { return len(rt.entries) }

// randomEntry returns an arbitrary entry for keepalive pings; ok is false if
// the table is empty. pick is an arbitrary non-negative selector (callers
// pass rng output) so selection stays deterministic under a seeded RNG.
func (rt *routingTable) randomEntry(pick int) (krpc.NodeInfo, bool) {
	if len(rt.entries) == 0 {
		return krpc.NodeInfo{}, false
	}
	return rt.entries[pick%len(rt.entries)].info, true
}
