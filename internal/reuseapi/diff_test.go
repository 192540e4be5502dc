// Tests for DiffDatasets' sort-merge: the map-probing diff it replaced is
// kept here as its oracle, and a fuzz target drives both through the whole
// reload path (diff, then ApplyDelta against a full Compile).
package reuseapi

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

// diffDatasetsByMap is the map-probing diff: every address of each side is
// looked up in the other side's map. It is the oracle DiffDatasets is
// pinned against; its RemoveNAT comes out in map order.
func diffDatasetsByMap(old, new *Dataset) *Delta {
	d := &Delta{AddNAT: map[iputil.Addr]int{}, Generated: new.Generated}
	for a, u := range new.NATUsers {
		if ou, ok := old.NATUsers[a]; !ok || ou != u {
			d.AddNAT[a] = u
		}
	}
	for a := range old.NATUsers {
		if _, ok := new.NATUsers[a]; !ok {
			d.RemoveNAT = append(d.RemoveNAT, a)
		}
	}
	for _, p := range new.DynamicPrefixes.Sorted() {
		if !old.DynamicPrefixes.Contains(p) {
			d.AddPrefixes = append(d.AddPrefixes, p)
		}
	}
	for _, p := range old.DynamicPrefixes.Sorted() {
		if !new.DynamicPrefixes.Contains(p) {
			d.RemovePrefixes = append(d.RemovePrefixes, p)
		}
	}
	return d
}

// requireDiffMatchesOracle diffs old against new with DiffDatasets and with
// the oracle and asserts the two deltas carry the same edits: equal AddNAT
// maps, the same removed addresses, the same prefix edits (both list them
// in sorted order) and the same Generated stamp. The sort-merge's RemoveNAT
// must also be strictly ascending. It returns the DiffDatasets delta.
func requireDiffMatchesOracle(t testing.TB, label string, old, new *Dataset) *Delta {
	t.Helper()
	got, want := DiffDatasets(old, new), diffDatasetsByMap(old, new)
	if !maps.Equal(got.AddNAT, want.AddNAT) {
		t.Fatalf("%s: AddNAT has %d entries, oracle %d, or they differ", label, len(got.AddNAT), len(want.AddNAT))
	}
	for i := 1; i < len(got.RemoveNAT); i++ {
		if got.RemoveNAT[i-1] >= got.RemoveNAT[i] {
			t.Fatalf("%s: RemoveNAT not strictly ascending at %d: %v then %v",
				label, i, got.RemoveNAT[i-1], got.RemoveNAT[i])
		}
	}
	sortedWant := slices.Clone(want.RemoveNAT)
	slices.Sort(sortedWant)
	if !slices.Equal(got.RemoveNAT, sortedWant) {
		t.Fatalf("%s: RemoveNAT has %d addresses, oracle %d, or they differ",
			label, len(got.RemoveNAT), len(sortedWant))
	}
	if !slices.Equal(got.AddPrefixes, want.AddPrefixes) || !slices.Equal(got.RemovePrefixes, want.RemovePrefixes) {
		t.Fatalf("%s: prefix edits +%d/-%d, oracle +%d/-%d, or they differ", label,
			len(got.AddPrefixes), len(got.RemovePrefixes), len(want.AddPrefixes), len(want.RemovePrefixes))
	}
	if !got.Generated.Equal(want.Generated) {
		t.Fatalf("%s: Generated %v, oracle %v", label, got.Generated, want.Generated)
	}
	return got
}

// fuzzDatasets decodes fuzz input into an old and a new dataset. The first
// byte is a header: bit 0 gives both datasets the same bulk of listSegMin
// seeded addresses and bit 1 the same bulk of prefixSegMin seeded prefixes,
// so the bodies start at the per-/8 layout and edits can cross back below
// it; bit 2 restamps the new dataset an hour later; the high bits seed the
// bulk, which falls in four /8s to keep an execution cheap. Every following
// 4-byte record (op, x, y, z) is one edit, by op&7:
//
//	0, 1, 2  prefix x.y.z.0/bits in old, new, or both
//	3, 4     address x.0.y.z in old or new only
//	5, 6     address x.0.y.z in both, with the same users (5) or one more in new (6)
//	7        drop bulk address and bulk prefix number x<<8|y from old (z even) or new
//
// with users 2+op>>3 and bits 8+(op>>3)%25. Record addresses fall in at
// most 256 top bytes, so records collide and spread across segments alike.
func fuzzDatasets(data []byte) (old, new *Dataset) {
	stamp := time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)
	old = &Dataset{NATUsers: map[iputil.Addr]int{}, DynamicPrefixes: iputil.NewPrefixSet(), Generated: stamp}
	new = &Dataset{NATUsers: map[iputil.Addr]int{}, DynamicPrefixes: iputil.NewPrefixSet(), Generated: stamp}
	if len(data) == 0 {
		return old, new
	}
	hdr, data := data[0], data[1:]
	if hdr&4 != 0 {
		new.Generated = stamp.Add(time.Hour)
	}
	rng := rand.New(rand.NewSource(int64(hdr >> 3)))
	bulkAddr := func() iputil.Addr { return iputil.Addr(10*(1+rng.Intn(4)))<<24 | iputil.Addr(rng.Intn(1<<24)) }
	var bulkAddrs []iputil.Addr
	var bulkPrefixes []iputil.Prefix
	if hdr&1 != 0 {
		bulk := &Dataset{NATUsers: map[iputil.Addr]int{}}
		for len(bulk.NATUsers) < listSegMin {
			bulk.NATUsers[bulkAddr()] = 2 + rng.Intn(500)
		}
		for a, u := range bulk.NATUsers {
			old.NATUsers[a], new.NATUsers[a] = u, u
		}
		bulkAddrs = sortedAddrs(bulk)
	}
	if hdr&2 != 0 {
		bulk := iputil.NewPrefixSet()
		for bulk.Len() < prefixSegMin {
			bulk.Add(iputil.PrefixFrom(bulkAddr(), 16+rng.Intn(9)))
		}
		bulkPrefixes = bulk.Sorted()
	}
	// PrefixSet has no Remove, so bulk prefixes join each side after the
	// records, less the ones a record dropped.
	dropped := map[*Dataset]map[iputil.Prefix]bool{old: {}, new: {}}
	for ; len(data) >= 4; data = data[4:] {
		op, x, y, z := data[0], data[1], data[2], data[3]
		users := 2 + int(op>>3)
		addr := iputil.Addr(x)<<24 | iputil.Addr(y)<<8 | iputil.Addr(z)
		prefix := iputil.PrefixFrom(iputil.Addr(x)<<24|iputil.Addr(y)<<16|iputil.Addr(z)<<8, 8+int(op>>3)%25)
		switch op & 7 {
		case 0:
			old.DynamicPrefixes.Add(prefix)
		case 1:
			new.DynamicPrefixes.Add(prefix)
		case 2:
			old.DynamicPrefixes.Add(prefix)
			new.DynamicPrefixes.Add(prefix)
		case 3:
			old.NATUsers[addr] = users
		case 4:
			new.NATUsers[addr] = users
		case 5:
			old.NATUsers[addr], new.NATUsers[addr] = users, users
		case 6:
			old.NATUsers[addr], new.NATUsers[addr] = users, users+1
		case 7:
			side := old
			if z&1 != 0 {
				side = new
			}
			i := int(x)<<8 | int(y)
			if len(bulkAddrs) > 0 {
				delete(side.NATUsers, bulkAddrs[i%len(bulkAddrs)])
			}
			if len(bulkPrefixes) > 0 {
				dropped[side][bulkPrefixes[i%len(bulkPrefixes)]] = true
			}
		}
	}
	for _, side := range []*Dataset{old, new} {
		for _, p := range bulkPrefixes {
			if !dropped[side][p] {
				side.DynamicPrefixes.Add(p)
			}
		}
	}
	return old, new
}

// FuzzDeltaCompile drives the watch reloader's path on decoded dataset
// pairs: DiffDatasets must match the map oracle, and applying its delta to
// the old snapshot must give a full Compile of the new dataset byte for
// byte — bodies, gzip members and ETags.
func FuzzDeltaCompile(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 3, 10, 0, 1, 4, 10, 0, 2, 5, 20, 1, 1, 6, 20, 1, 2, 0, 30, 4, 0, 1, 30, 5, 0})
	// Across the segmented-layout minimums: new drops below them, then old.
	f.Add([]byte{5, 7, 0, 1, 1, 6, 1, 2, 3})
	f.Add([]byte{3 | 8<<3, 7, 1, 1, 0, 2, 77, 7, 7})
	f.Add([]byte{2, 7, 0, 0, 0, 7, 0, 1, 1, 1, 40, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		old, new := fuzzDatasets(data)
		delta := requireDiffMatchesOracle(t, "diff", old, new)
		requireSameBodies(t, "delta compile", Compile(old).ApplyDelta(delta), Compile(new))
	})
}
