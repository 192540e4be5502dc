package reuseapi

import "github.com/reuseblock/reuseblock/internal/iputil"

// natEntry is one NATed address with its user lower bound: the record every
// address set is pulled into and sorted as (Compile, DiffDatasets,
// ApplyDelta's merge, SortedNATed).
type natEntry struct {
	addr  iputil.Addr
	users int
}

// radixBits is the digit width of sortedEntries' passes: three 11-bit
// digits cover a 32-bit address.
const (
	radixBits = 11
	radixMask = 1<<radixBits - 1
)

// sortedEntries returns m's entries in ascending address order, by an LSD
// radix sort: the pull out of the map also counts all three digits, then
// one stable scatter per digit, least significant first, moves the entries
// between two buffers. A digit every entry shares needs no pass. On 200K
// addresses this takes a few milliseconds where sort.Slice takes over 40
// (DESIGN.md §9).
func sortedEntries(m map[iputil.Addr]int) []natEntry {
	var counts [3][1 << radixBits]int32
	src := make([]natEntry, 0, len(m))
	for a, u := range m {
		src = append(src, natEntry{a, u})
		counts[0][a&radixMask]++
		counts[1][a>>radixBits&radixMask]++
		counts[2][a>>(2*radixBits)]++
	}
	var dst []natEntry
	for pass := range counts {
		c, shift := &counts[pass], radixBits*pass
		if len(src) == 0 || int(c[src[0].addr>>shift&radixMask]) == len(src) {
			continue
		}
		if dst == nil {
			dst = make([]natEntry, len(src))
		}
		var sum int32
		for d, n := range c {
			c[d], sum = sum, sum+n
		}
		for _, e := range src {
			d := e.addr >> shift & radixMask
			dst[c[d]] = e
			c[d]++
		}
		src, dst = dst, src
	}
	return src
}
