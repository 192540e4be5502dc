// Package ipset provides a memory-compact mutable set of IPv4 addresses.
//
// The representation follows the interval/bitmap hybrid that "Lost in
// Space: Improving Inference of IPv4 Address Space Utilization" uses to
// make Internet-scale address sets tractable: the 2^32 address space is
// split into /16 blocks, and each populated block holds one container
// chosen by density — a sorted array of 16-bit suffixes for sparse blocks,
// a sorted interval (run) list for contiguous pool space, or a 1024-word
// bitmap for dense blocks. A 48.7M-address crawl result that costs ~2.4 GB
// as a Go map costs tens of megabytes here, and iteration is ascending by
// construction, which is what deterministic artifact rendering wants.
//
// The set operates on host-order uint32 values so it can sit below
// iputil (iputil.Set wraps it); all operations are deterministic functions
// of the operation sequence, never of map iteration order.
package ipset

import "math/bits"

// Container kinds. A container covers one /16 block (the high 16 bits of
// the address are the block key; the low 16 bits live in the container).
const (
	arrKind = iota // sorted []uint16 of suffixes
	runKind        // sorted, disjoint, non-adjacent [lo,hi] suffix pairs
	bmpKind        // 1024-word bitmap over the 65536 suffixes
)

// arrMax is the array-container cardinality bound: past this an array
// (2 bytes/member) would outgrow the fixed 8 KiB bitmap, so the container
// converts. Removal converts back down at arrMax/2 to avoid flip-flopping
// at the boundary.
const arrMax = 4096

// bmpWords is the bitmap container size: 65536 bits.
const bmpWords = 1024

type container struct {
	kind uint8
	n    int32 // cardinality
	// arr holds sorted suffixes (arrKind) or packed lo,hi run pairs
	// (runKind); bmp holds the bitmap (bmpKind). Only one is non-nil.
	arr []uint16
	bmp []uint64
}

// Set is a mutable set of IPv4 addresses (host-order uint32). The zero
// value is an empty set ready for use.
type Set struct {
	keys []uint16    // sorted /16 block keys
	ctrs []container // parallel to keys
	n    int         // total cardinality
}

// New returns an empty set.
func New() *Set { return &Set{} }

// Len returns the number of addresses in the set.
func (s *Set) Len() int { return s.n }

// findBlock returns the index of key in s.keys and whether it is present;
// when absent the index is the insertion point.
func (s *Set) findBlock(key uint16) (int, bool) {
	lo, hi := 0, len(s.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.keys) && s.keys[lo] == key
}

// Add inserts v; it reports whether v was newly added.
func (s *Set) Add(v uint32) bool {
	key, suf := uint16(v>>16), uint16(v)
	i, ok := s.findBlock(key)
	if !ok {
		s.keys = append(s.keys, 0)
		copy(s.keys[i+1:], s.keys[i:])
		s.keys[i] = key
		s.ctrs = append(s.ctrs, container{})
		copy(s.ctrs[i+1:], s.ctrs[i:])
		s.ctrs[i] = container{kind: arrKind, n: 1, arr: []uint16{suf}}
		s.n++
		return true
	}
	if s.ctrs[i].add(suf) {
		s.n++
		return true
	}
	return false
}

// Remove deletes v; it reports whether v was present. Emptied blocks are
// dropped so footprint tracks live content.
func (s *Set) Remove(v uint32) bool {
	key, suf := uint16(v>>16), uint16(v)
	i, ok := s.findBlock(key)
	if !ok || !s.ctrs[i].remove(suf) {
		return false
	}
	s.n--
	if s.ctrs[i].n == 0 {
		s.keys = append(s.keys[:i], s.keys[i+1:]...)
		s.ctrs = append(s.ctrs[:i], s.ctrs[i+1:]...)
	}
	return true
}

// Contains reports membership of v.
func (s *Set) Contains(v uint32) bool {
	i, ok := s.findBlock(uint16(v >> 16))
	return ok && s.ctrs[i].contains(uint16(v))
}

// AddRange inserts every address in [lo, hi] (inclusive; lo > hi is a
// no-op). Contiguous spans enter as interval containers, so a /16 costs
// four bytes instead of 65536 map entries.
func (s *Set) AddRange(lo, hi uint32) {
	for lo <= hi {
		key := uint16(lo >> 16)
		blockEnd := uint32(key)<<16 | 0xffff
		end := hi
		if end > blockEnd {
			end = blockEnd
		}
		s.addRangeInBlock(key, uint16(lo), uint16(end))
		if end >= hi || blockEnd == 0xffffffff {
			break
		}
		lo = blockEnd + 1
	}
}

func (s *Set) addRangeInBlock(key, lo, hi uint16) {
	i, ok := s.findBlock(key)
	if !ok {
		s.keys = append(s.keys, 0)
		copy(s.keys[i+1:], s.keys[i:])
		s.keys[i] = key
		s.ctrs = append(s.ctrs, container{})
		copy(s.ctrs[i+1:], s.ctrs[i:])
		s.ctrs[i] = container{kind: runKind, n: int32(hi-lo) + 1, arr: []uint16{lo, hi}}
		s.n += int(hi-lo) + 1
		return
	}
	before := s.ctrs[i].n
	s.ctrs[i].addRange(lo, hi)
	s.n += int(s.ctrs[i].n - before)
}

// Iterate calls fn for every member in ascending order until fn returns
// false or the members are exhausted.
func (s *Set) Iterate(fn func(uint32) bool) {
	for i, key := range s.keys {
		base := uint32(key) << 16
		if !s.ctrs[i].iterate(base, fn) {
			return
		}
	}
}

// UnionWith adds every member of t to s, container-wise and in place:
// bitmap receivers absorb any container shape with zero allocation, and
// array/run receivers reuse capacity where they can.
func (s *Set) UnionWith(t *Set) {
	if t == nil {
		return
	}
	for j, key := range t.keys {
		tc := &t.ctrs[j]
		i, ok := s.findBlock(key)
		if !ok {
			s.keys = append(s.keys, 0)
			copy(s.keys[i+1:], s.keys[i:])
			s.keys[i] = key
			s.ctrs = append(s.ctrs, container{})
			copy(s.ctrs[i+1:], s.ctrs[i:])
			s.ctrs[i] = tc.clone()
			s.n += int(tc.n)
			continue
		}
		before := s.ctrs[i].n
		s.ctrs[i].unionWith(tc)
		s.n += int(s.ctrs[i].n - before)
	}
}

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	out := &Set{
		keys: append([]uint16(nil), s.keys...),
		ctrs: make([]container, len(s.ctrs)),
		n:    s.n,
	}
	for i := range s.ctrs {
		out.ctrs[i] = s.ctrs[i].clone()
	}
	return out
}

// Compact converts every container to its smallest representation
// (intervals for contiguous space, arrays for sparse, bitmaps for dense)
// and trims slack capacity. Call it when a set stops being mutated.
func (s *Set) Compact() {
	for i := range s.ctrs {
		s.ctrs[i].compact()
	}
}

// MemBytes estimates the heap footprint of the set's payload (container
// storage plus indexing), for bytes-per-host accounting in scale benches.
func (s *Set) MemBytes() int {
	b := cap(s.keys)*2 + cap(s.ctrs)*containerBytes
	for i := range s.ctrs {
		b += cap(s.ctrs[i].arr)*2 + cap(s.ctrs[i].bmp)*8
	}
	return b
}

// containerBytes is the in-struct size of one container header.
const containerBytes = 8 + 24 + 24 // kind+n padded, two slice headers

// --- container operations ---

func (c *container) contains(v uint16) bool {
	switch c.kind {
	case arrKind:
		i := searchU16(c.arr, v)
		return i < len(c.arr) && c.arr[i] == v
	case runKind:
		_, in := c.findRun(v)
		return in
	default:
		return c.bmp[v>>6]&(1<<(v&63)) != 0
	}
}

// findRun locates the run containing v: it returns the index of the first
// run with hi >= v and whether that run contains v.
func (c *container) findRun(v uint16) (int, bool) {
	lo, hi := 0, len(c.arr)/2
	for lo < hi {
		mid := (lo + hi) / 2
		if c.arr[2*mid+1] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(c.arr)/2 && c.arr[2*lo] <= v
}

func (c *container) add(v uint16) bool {
	switch c.kind {
	case arrKind:
		i := searchU16(c.arr, v)
		if i < len(c.arr) && c.arr[i] == v {
			return false
		}
		if len(c.arr) >= arrMax {
			c.toBitmap()
			return c.add(v)
		}
		c.arr = append(c.arr, 0)
		copy(c.arr[i+1:], c.arr[i:])
		c.arr[i] = v
		c.n++
		return true
	case runKind:
		i, in := c.findRun(v)
		if in {
			return false
		}
		nr := len(c.arr) / 2
		// Extend the previous run upward, the next run downward, or merge
		// the two when v bridges them.
		prevAdj := i > 0 && c.arr[2*i-1] == v-1 && v != 0
		nextAdj := i < nr && c.arr[2*i] == v+1 && v != 0xffff
		switch {
		case prevAdj && nextAdj:
			c.arr[2*i-1] = c.arr[2*i+1]
			c.arr = append(c.arr[:2*i], c.arr[2*i+2:]...)
		case prevAdj:
			c.arr[2*i-1] = v
		case nextAdj:
			c.arr[2*i] = v
		default:
			if nr >= arrMax/2 {
				c.toBitmap()
				return c.add(v)
			}
			c.arr = append(c.arr, 0, 0)
			copy(c.arr[2*i+2:], c.arr[2*i:])
			c.arr[2*i], c.arr[2*i+1] = v, v
		}
		c.n++
		return true
	default:
		w, b := v>>6, uint64(1)<<(v&63)
		if c.bmp[w]&b != 0 {
			return false
		}
		c.bmp[w] |= b
		c.n++
		return true
	}
}

func (c *container) addRange(lo, hi uint16) {
	switch c.kind {
	case arrKind:
		if int(hi-lo)+1 <= 8 { // tiny span: element-wise is cheaper
			for v := lo; ; v++ {
				c.add(v)
				if v == hi {
					break
				}
			}
			return
		}
		c.toRuns()
		c.addRange(lo, hi)
	case runKind:
		// Collect the runs overlapping or adjacent to [lo, hi] and replace
		// them with one merged run.
		i, _ := c.findRun(lo)
		if i > 0 && lo != 0 && c.arr[2*i-1] >= lo-1 {
			i--
		}
		j := i
		newLo, newHi := lo, hi
		nr := len(c.arr) / 2
		for j < nr {
			rl, rh := c.arr[2*j], c.arr[2*j+1]
			if rl > hi && (hi == 0xffff || rl > hi+1) {
				break
			}
			if rl < newLo {
				newLo = rl
			}
			if rh > newHi {
				newHi = rh
			}
			j++
		}
		removed := 0
		for k := i; k < j; k++ {
			removed += int(c.arr[2*k+1]-c.arr[2*k]) + 1
		}
		if j == i { // no overlap: insert a fresh run at i
			c.arr = append(c.arr, 0, 0)
			copy(c.arr[2*i+2:], c.arr[2*i:])
			c.arr[2*i], c.arr[2*i+1] = newLo, newHi
		} else { // replace runs [i,j) with the merged run
			c.arr[2*i], c.arr[2*i+1] = newLo, newHi
			copy(c.arr[2*i+2:], c.arr[2*j:])
			c.arr = c.arr[:len(c.arr)-2*(j-i-1)]
		}
		c.n += int32(int(newHi-newLo) + 1 - removed)
		if len(c.arr)/2 >= arrMax/2 {
			c.toBitmap()
		}
	default:
		for w := lo >> 6; w <= hi>>6; w++ {
			mask := ^uint64(0)
			if w == lo>>6 {
				mask &= ^uint64(0) << (lo & 63)
			}
			if w == hi>>6 {
				mask &= ^uint64(0) >> (63 - hi&63)
			}
			c.n += int32(bits.OnesCount64(mask &^ c.bmp[w]))
			c.bmp[w] |= mask
		}
	}
}

func (c *container) remove(v uint16) bool {
	switch c.kind {
	case arrKind:
		i := searchU16(c.arr, v)
		if i >= len(c.arr) || c.arr[i] != v {
			return false
		}
		c.arr = append(c.arr[:i], c.arr[i+1:]...)
		c.n--
		return true
	case runKind:
		i, in := c.findRun(v)
		if !in {
			return false
		}
		rl, rh := c.arr[2*i], c.arr[2*i+1]
		switch {
		case rl == v && rh == v:
			c.arr = append(c.arr[:2*i], c.arr[2*i+2:]...)
		case rl == v:
			c.arr[2*i] = v + 1
		case rh == v:
			c.arr[2*i+1] = v - 1
		default:
			if len(c.arr)/2 >= arrMax/2 {
				c.toBitmap()
				return c.remove(v)
			}
			c.arr = append(c.arr, 0, 0)
			copy(c.arr[2*i+2:], c.arr[2*i:])
			c.arr[2*i], c.arr[2*i+1] = rl, v-1
			c.arr[2*i+2], c.arr[2*i+3] = v+1, rh
		}
		c.n--
		return true
	default:
		w, b := v>>6, uint64(1)<<(v&63)
		if c.bmp[w]&b == 0 {
			return false
		}
		c.bmp[w] &^= b
		c.n--
		if c.n <= arrMax/2 {
			c.toArray()
		}
		return true
	}
}

func (c *container) iterate(base uint32, fn func(uint32) bool) bool {
	switch c.kind {
	case arrKind:
		for _, v := range c.arr {
			if !fn(base | uint32(v)) {
				return false
			}
		}
	case runKind:
		for i := 0; i < len(c.arr); i += 2 {
			for v := uint32(c.arr[i]); v <= uint32(c.arr[i+1]); v++ {
				if !fn(base | v) {
					return false
				}
			}
		}
	default:
		for w, word := range c.bmp {
			for word != 0 {
				bit := bits.TrailingZeros64(word)
				if !fn(base | uint32(w<<6+bit)) {
					return false
				}
				word &= word - 1
			}
		}
	}
	return true
}

func (c *container) unionWith(t *container) {
	if t.n == 0 {
		return
	}
	if c.kind == bmpKind {
		switch t.kind {
		case bmpKind:
			n := int32(0)
			for w := range c.bmp {
				c.bmp[w] |= t.bmp[w]
				n += int32(bits.OnesCount64(c.bmp[w]))
			}
			c.n = n
		case arrKind:
			for _, v := range t.arr {
				c.add(v)
			}
		default:
			for i := 0; i < len(t.arr); i += 2 {
				c.addRange(t.arr[i], t.arr[i+1])
			}
		}
		return
	}
	// Small receiver: fold the other container in element- or range-wise;
	// conversions to bitmap happen automatically past the thresholds.
	switch t.kind {
	case arrKind:
		for _, v := range t.arr {
			c.add(v)
		}
	case runKind:
		for i := 0; i < len(t.arr); i += 2 {
			c.addRange(t.arr[i], t.arr[i+1])
		}
	default:
		t.iterate(0, func(v uint32) bool {
			c.add(uint16(v))
			return true
		})
	}
}

func (c *container) clone() container {
	out := container{kind: c.kind, n: c.n}
	if c.arr != nil {
		out.arr = append([]uint16(nil), c.arr...)
	}
	if c.bmp != nil {
		out.bmp = append([]uint64(nil), c.bmp...)
	}
	return out
}

func (c *container) toBitmap() {
	bmp := make([]uint64, bmpWords)
	switch c.kind {
	case arrKind:
		for _, v := range c.arr {
			bmp[v>>6] |= 1 << (v & 63)
		}
	case runKind:
		for i := 0; i < len(c.arr); i += 2 {
			for w := c.arr[i] >> 6; ; w++ {
				mask := ^uint64(0)
				if w == c.arr[i]>>6 {
					mask &= ^uint64(0) << (c.arr[i] & 63)
				}
				if w == c.arr[i+1]>>6 {
					mask &= ^uint64(0) >> (63 - c.arr[i+1]&63)
				}
				bmp[w] |= mask
				if w == c.arr[i+1]>>6 {
					break
				}
			}
		}
	}
	c.kind, c.arr, c.bmp = bmpKind, nil, bmp
}

func (c *container) toArray() {
	arr := make([]uint16, 0, c.n)
	c.iterate(0, func(v uint32) bool {
		arr = append(arr, uint16(v))
		return true
	})
	c.kind, c.arr, c.bmp = arrKind, arr, nil
}

// toRuns converts to an interval container (from array form).
func (c *container) toRuns() {
	if c.kind != arrKind {
		return
	}
	runs := make([]uint16, 0, 8)
	for i := 0; i < len(c.arr); {
		j := i
		for j+1 < len(c.arr) && c.arr[j+1] == c.arr[j]+1 {
			j++
		}
		runs = append(runs, c.arr[i], c.arr[j])
		i = j + 1
	}
	c.kind, c.arr = runKind, runs
}

// compact rewrites the container as its smallest representation.
func (c *container) compact() {
	// Count runs to size the candidates.
	runs := 0
	switch c.kind {
	case runKind:
		runs = len(c.arr) / 2
	case arrKind:
		for i := 0; i < len(c.arr); i++ {
			if i == 0 || c.arr[i] != c.arr[i-1]+1 {
				runs++
			}
		}
	default:
		prev := false
		for _, word := range c.bmp {
			for b := 0; b < 64; b++ {
				set := word&(1<<b) != 0
				if set && !prev {
					runs++
				}
				prev = set
			}
		}
	}
	runBytes, aBytes, bBytes := runs*4, int(c.n)*2, bmpWords*8
	switch {
	case runBytes <= aBytes && runBytes <= bBytes:
		if c.kind == bmpKind {
			c.toArray()
		}
		c.toRuns()
		c.arr = append([]uint16(nil), c.arr...) // trim capacity
	case aBytes <= bBytes:
		if c.kind != arrKind {
			c.toArray()
		} else {
			c.arr = append([]uint16(nil), c.arr...)
		}
	default:
		if c.kind != bmpKind {
			c.toBitmap()
		}
	}
}

// searchU16 returns the index of the first element >= v.
func searchU16(a []uint16, v uint16) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
