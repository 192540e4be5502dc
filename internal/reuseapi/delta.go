package reuseapi

import (
	"bytes"
	"sort"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

// Delta is an incremental dataset update: the membership and value edits a
// daily feed drop carries, applied to a compiled snapshot without paying a
// full recompile. The 83-day longitudinal ingest replaces a few providers'
// worth of addresses per day out of hundreds of thousands served. ApplyDelta
// recompresses only the body segments (one per address top byte) that the
// edit touches, so its cost follows the edit when the churn is clustered in
// a few /8s; churn scattered across the address space touches every segment
// and costs about as much as a full compile.
type Delta struct {
	// AddNAT sets the user lower bound per address, inserting new members
	// and overwriting existing ones.
	AddNAT map[iputil.Addr]int
	// RemoveNAT drops addresses. Removing an absent address is a no-op; an
	// address in both AddNAT and RemoveNAT ends up present (add wins).
	RemoveNAT []iputil.Addr
	// AddPrefixes / RemovePrefixes edit the dynamic-prefix set under the
	// same semantics.
	AddPrefixes    []iputil.Prefix
	RemovePrefixes []iputil.Prefix
	// Generated restamps the dataset build time; the zero value keeps the
	// old stamp.
	Generated time.Time
}

// Ops returns the number of membership/value edits the delta carries.
func (d *Delta) Ops() int {
	return len(d.AddNAT) + len(d.RemoveNAT) + len(d.AddPrefixes) + len(d.RemovePrefixes)
}

// Empty reports whether the delta carries no edits. Generated alone does not
// count: a byte-identical feed rewrite should keep the served snapshot —
// ETags included — rather than restamp it.
func (d *Delta) Empty() bool { return d.Ops() == 0 }

// ApplyTo returns the dataset that results from applying d to base, leaving
// base untouched. This is the reference semantics the delta compile is
// pinned against: Compile(d.ApplyTo(base)) must be byte-identical to
// ApplyDelta(d) on base's snapshot.
func (d *Delta) ApplyTo(base *Dataset) *Dataset {
	out := &Dataset{
		NATUsers:        make(map[iputil.Addr]int, len(base.NATUsers)+len(d.AddNAT)),
		DynamicPrefixes: iputil.NewPrefixSet(),
		Generated:       base.Generated,
	}
	if !d.Generated.IsZero() {
		out.Generated = d.Generated
	}
	for a, u := range base.NATUsers {
		out.NATUsers[a] = u
	}
	for _, a := range d.RemoveNAT {
		delete(out.NATUsers, a)
	}
	for a, u := range d.AddNAT {
		out.NATUsers[a] = u
	}
	removed := make(map[iputil.Prefix]bool, len(d.RemovePrefixes))
	for _, p := range d.RemovePrefixes {
		removed[p] = true
	}
	if base.DynamicPrefixes != nil {
		for _, p := range base.DynamicPrefixes.Sorted() {
			if !removed[p] {
				out.DynamicPrefixes.Add(p)
			}
		}
	}
	for _, p := range d.AddPrefixes {
		out.DynamicPrefixes.Add(p)
	}
	return out
}

// DiffDatasets computes the delta that turns old into new — what a watch
// reloader feeds ApplyDelta after re-parsing its input files. Both datasets
// must be normalized (non-nil map and set).
//
// It is a sort-merge rather than a map probe per address: both address
// maps are pulled into (address, users) entries, radix-sorted and walked
// once in step, and both prefix sets are walked in their sorted order.
// RemoveNAT, AddPrefixes and RemovePrefixes come out in ascending order.
func DiffDatasets(old, new *Dataset) *Delta {
	d := &Delta{AddNAT: map[iputil.Addr]int{}, Generated: new.Generated}
	olds, news := sortedEntries(old.NATUsers), sortedEntries(new.NATUsers)
	i, j := 0, 0
	for i < len(olds) || j < len(news) {
		switch {
		case j == len(news) || (i < len(olds) && olds[i].addr < news[j].addr):
			d.RemoveNAT = append(d.RemoveNAT, olds[i].addr)
			i++
		case i == len(olds) || news[j].addr < olds[i].addr:
			d.AddNAT[news[j].addr] = news[j].users
			j++
		default:
			if olds[i].users != news[j].users {
				d.AddNAT[news[j].addr] = news[j].users
			}
			i++
			j++
		}
	}

	oldP, newP := old.DynamicPrefixes.Sorted(), new.DynamicPrefixes.Sorted()
	i, j = 0, 0
	for i < len(oldP) || j < len(newP) {
		switch {
		case j == len(newP) || (i < len(oldP) && prefixLess(oldP[i], newP[j])):
			d.RemovePrefixes = append(d.RemovePrefixes, oldP[i])
			i++
		case i == len(oldP) || oldP[i] != newP[j]:
			d.AddPrefixes = append(d.AddPrefixes, newP[j])
			j++
		default:
			i++
			j++
		}
	}
	return d
}

// ApplyDelta compiles the snapshot that Compile would produce for the
// delta-edited dataset, byte-for-byte — same bodies, same gzip members, same
// ETags — but pays only for what the delta touches: the NAT array is merged
// in one pass instead of rebuilt from a map, the LPM trie shares every
// untouched node with the old snapshot via path-copying, and only body
// segments whose content changed are recompressed (compression dominates
// Compile, so that is the saving). The receiver is never mutated; concurrent
// readers of it are unaffected.
func (s *Snapshot) ApplyDelta(d *Delta) *Snapshot {
	out := &Snapshot{generated: s.generated}
	if !d.Generated.IsZero() {
		out.generated = d.Generated
	}

	out.natAddrs, out.natUsers = mergeNAT(s.natAddrs, s.natUsers, d)
	for _, u := range out.natUsers {
		if u > out.maxUsers {
			out.maxUsers = u
		}
	}
	if len(out.natAddrs) >= 1024 {
		out.nat16 = buildNAT16(out.natAddrs)
	}

	out.prefixes, out.sortedPrefixes = mergePrefixes(s.prefixes, s.sortedPrefixes, d)
	out.nDynamic = len(out.sortedPrefixes)

	out.list = precomputeSegments(reuseSegments(
		renderListSegments(out.generated, out.natAddrs), s.list.segs))
	out.prefixesB = precomputeSegments(reuseSegments(
		renderPrefixesSegments(out.generated, out.sortedPrefixes), s.prefixesB.segs))
	out.stats = precomputeSegments(reuseSegments(
		[]bodySegment{{key: segKeyWhole, body: renderStats(out)}}, s.stats.segs))
	return out
}

// ApplyDelta swaps in the delta-compiled successor of the current snapshot.
// Like Update it expects a single writer (the reloader goroutine):
// concurrent readers always see a complete snapshot, but concurrent writers
// could lose one another's edits.
func (s *Server) ApplyDelta(d *Delta) {
	s.snap.Store(s.snap.Load().ApplyDelta(d))
}

// mergeNAT produces the sorted successor address/user arrays in one linear
// pass over the old arrays and the delta's (sorted) additions.
func mergeNAT(oldAddrs []iputil.Addr, oldUsers []int, d *Delta) ([]iputil.Addr, []int) {
	adds := sortedEntries(d.AddNAT)
	removed := make(map[iputil.Addr]bool, len(d.RemoveNAT))
	for _, a := range d.RemoveNAT {
		if _, ok := d.AddNAT[a]; !ok { // add wins over remove
			removed[a] = true
		}
	}

	addrs := make([]iputil.Addr, 0, len(oldAddrs)+len(adds))
	users := make([]int, 0, len(oldAddrs)+len(adds))
	i, j := 0, 0
	for i < len(oldAddrs) || j < len(adds) {
		switch {
		case j >= len(adds) || (i < len(oldAddrs) && oldAddrs[i] < adds[j].addr):
			if a := oldAddrs[i]; !removed[a] {
				addrs = append(addrs, a)
				users = append(users, oldUsers[i])
			}
			i++
		case i >= len(oldAddrs) || adds[j].addr < oldAddrs[i]:
			addrs = append(addrs, adds[j].addr)
			users = append(users, adds[j].users)
			j++
		default: // same address: the add overwrites the user bound
			addrs = append(addrs, adds[j].addr)
			users = append(users, adds[j].users)
			i++
			j++
		}
	}
	return addrs, users
}

// mergePrefixes produces the successor LPM trie by path-copying only the
// edited prefixes' paths, plus the successor sorted member list by a linear
// merge.
func mergePrefixes(oldTrie *iputil.Table[compiledPrefix], oldSorted []iputil.Prefix, d *Delta) (*iputil.Table[compiledPrefix], []iputil.Prefix) {
	added := make(map[iputil.Prefix]bool, len(d.AddPrefixes))
	for _, p := range d.AddPrefixes {
		if _, ok := oldTrie.LookupPrefix(p); !ok {
			added[p] = true
		}
	}
	removed := make(map[iputil.Prefix]bool, len(d.RemovePrefixes))
	for _, p := range d.RemovePrefixes {
		if _, ok := oldTrie.LookupPrefix(p); ok && !containsPrefix(d.AddPrefixes, p) {
			removed[p] = true
		}
	}

	trie := oldTrie
	for p := range removed {
		trie = trie.DeleteCopy(p)
	}
	adds := make([]iputil.Prefix, 0, len(added))
	for p := range added {
		trie = trie.InsertCopy(p, compiledPrefix{cidr: p.String()})
		adds = append(adds, p)
	}
	sort.Slice(adds, func(i, j int) bool { return prefixLess(adds[i], adds[j]) })

	sorted := make([]iputil.Prefix, 0, len(oldSorted)+len(adds))
	i, j := 0, 0
	for i < len(oldSorted) || j < len(adds) {
		if j >= len(adds) || (i < len(oldSorted) && prefixLess(oldSorted[i], adds[j])) {
			if p := oldSorted[i]; !removed[p] {
				sorted = append(sorted, p)
			}
			i++
		} else {
			sorted = append(sorted, adds[j])
			j++
		}
	}
	return trie, sorted
}

// prefixLess matches PrefixSet.Sorted's order: base address, then length.
func prefixLess(a, b iputil.Prefix) bool {
	if a.Base() != b.Base() {
		return a.Base() < b.Base()
	}
	return a.Bits() < b.Bits()
}

// containsPrefix reports whether ps contains p (delta slices are tiny, so a
// linear scan beats building a set).
func containsPrefix(ps []iputil.Prefix, p iputil.Prefix) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

// reuseSegments splices cached gzip members from the old snapshot into a
// freshly rendered segment list: any fresh segment whose key and content
// match an old segment inherits its member instead of recompressing.
// Rendering is linear and cheap; compression is what the reuse avoids. The
// content comparison makes the splice unconditionally safe — a reused member
// is by construction the compression of exactly these bytes.
func reuseSegments(fresh []bodySegment, old []bodySegment) []bodySegment {
	if len(old) == 0 {
		return fresh
	}
	byKey := make(map[int]bodySegment, len(old))
	for _, seg := range old {
		byKey[seg.key] = seg
	}
	for i := range fresh {
		if o, ok := byKey[fresh[i].key]; ok && bytes.Equal(o.body, fresh[i].body) {
			fresh[i].gz = o.gz
		}
	}
	return fresh
}

// buildNAT16 buckets sorted addresses by their top 16 bits, as in Compile.
func buildNAT16(addrs []iputil.Addr) []int32 {
	idx := make([]int32, 1<<16+1)
	h := 0
	for i, a := range addrs {
		for top := int(a >> 16); h <= top; h++ {
			idx[h] = int32(i)
		}
	}
	for ; h <= 1<<16; h++ {
		idx[h] = int32(len(addrs))
	}
	return idx
}
