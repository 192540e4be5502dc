package iputil

import (
	"math/bits"
	"sort"

	"github.com/reuseblock/reuseblock/internal/ipset"
)

// Set is a mutable set of IPv4 addresses. The zero value is not ready for
// use; construct with NewSet.
//
// The storage is the compact interval/bitmap hybrid in internal/ipset
// rather than a Go map: a paper-scale crawl result (tens of millions of
// addresses) costs a few bytes per address instead of ~50, membership stays
// O(log) with no hashing, and — because the hybrid iterates in ascending
// order by construction — Sorted and Iterate need no sort step and no
// map-order laundering.
type Set struct {
	s ipset.Set
}

// NewSet returns an empty address set.
func NewSet() *Set {
	return &Set{}
}

// SetOf builds a set from the given addresses.
func SetOf(addrs ...Addr) *Set {
	s := NewSet()
	for _, a := range addrs {
		s.Add(a)
	}
	return s
}

// Add inserts a into the set; it reports whether a was newly added.
func (s *Set) Add(a Addr) bool {
	return s.s.Add(uint32(a))
}

// AddRange inserts every address in [lo, hi] (inclusive). Contiguous pool
// space enters as intervals, costing bytes rather than entries.
func (s *Set) AddRange(lo, hi Addr) {
	s.s.AddRange(uint32(lo), uint32(hi))
}

// Remove deletes a from the set.
func (s *Set) Remove(a Addr) {
	s.s.Remove(uint32(a))
}

// Contains reports membership.
func (s *Set) Contains(a Addr) bool {
	return s.s.Contains(uint32(a))
}

// Len returns the number of addresses in the set.
func (s *Set) Len() int { return s.s.Len() }

// AddSet inserts every address of t into s, merging container-wise in
// place (no per-element hashing).
func (s *Set) AddSet(t *Set) {
	if t != nil {
		s.s.UnionWith(&t.s)
	}
}

// Iterate calls fn for every member in ascending numeric order until fn
// returns false. It is the allocation-free alternative to Sorted.
func (s *Set) Iterate(fn func(Addr) bool) {
	s.s.Iterate(func(v uint32) bool { return fn(Addr(v)) })
}

// Intersect returns a new set holding the addresses present in both s and t.
func (s *Set) Intersect(t *Set) *Set {
	small, big := s, t
	if big.Len() < small.Len() {
		small, big = big, small
	}
	out := NewSet()
	small.Iterate(func(a Addr) bool {
		if big.Contains(a) {
			out.Add(a)
		}
		return true
	})
	return out
}

// Sorted returns the addresses in ascending numeric order.
func (s *Set) Sorted() []Addr {
	out := make([]Addr, 0, s.Len())
	s.Iterate(func(a Addr) bool {
		out = append(out, a)
		return true
	})
	return out
}

// Slash24s returns the set of /24 prefixes covering the members of s.
func (s *Set) Slash24s() *PrefixSet {
	ps := NewPrefixSet()
	s.Iterate(func(a Addr) bool {
		ps.Add(a.Slash24())
		return true
	})
	return ps
}

// Compact converts the storage to its smallest representation; call when
// the set stops being mutated.
func (s *Set) Compact() { s.s.Compact() }

// MemBytes estimates the heap footprint of the set's storage.
func (s *Set) MemBytes() int { return s.s.MemBytes() }

// PrefixSet is a set of canonical prefixes. Unlike Set it stores prefixes of
// mixed lengths; Covers answers "is this address inside any member?".
type PrefixSet struct {
	m map[Prefix]struct{}
	// lens has bit b set when a member is b bits long, so Covers probes only
	// lengths that can match. The set has no Remove, so a bit never clears.
	lens uint64
}

// NewPrefixSet returns an empty prefix set.
func NewPrefixSet() *PrefixSet {
	return &PrefixSet{m: make(map[Prefix]struct{})}
}

// Add inserts p; it reports whether p was newly added.
func (ps *PrefixSet) Add(p Prefix) bool {
	if _, ok := ps.m[p]; ok {
		return false
	}
	ps.m[p] = struct{}{}
	ps.lens |= 1 << p.Bits()
	return true
}

// Contains reports whether exactly p is a member.
func (ps *PrefixSet) Contains(p Prefix) bool {
	_, ok := ps.m[p]
	return ok
}

// Covers reports whether any member prefix contains a.
func (ps *PrefixSet) Covers(a Addr) bool {
	_, ok := ps.CoveringPrefix(a)
	return ok
}

// CoveringPrefix returns the longest member prefix containing a. Probes run
// from the longest present length down so the first hit is the longest
// match; lengths with no members are skipped.
func (ps *PrefixSet) CoveringPrefix(a Addr) (Prefix, bool) {
	for lens := ps.lens; lens != 0; {
		n := bits.Len64(lens) - 1
		lens &^= 1 << n
		p := PrefixFrom(a, n)
		if _, ok := ps.m[p]; ok {
			return p, true
		}
	}
	return Prefix{}, false
}

// Compile builds a longest-prefix-match Table over the members, mapping each
// address to its longest covering prefix. Lookups on the compiled table walk
// at most 32 trie nodes with no hashing, which is what serving hot paths
// want; the set itself stays the mutable build-side representation.
func (ps *PrefixSet) Compile() *Table[Prefix] {
	t := NewTable[Prefix]()
	for p := range ps.m {
		t.Insert(p, p)
	}
	return t
}

// Len returns the number of member prefixes.
func (ps *PrefixSet) Len() int { return len(ps.m) }

// Sorted returns members ordered by base address, then prefix length.
func (ps *PrefixSet) Sorted() []Prefix {
	out := make([]Prefix, 0, len(ps.m))
	for p := range ps.m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Base() != out[j].Base() {
			return out[i].Base() < out[j].Base()
		}
		return out[i].Bits() < out[j].Bits()
	})
	return out
}
