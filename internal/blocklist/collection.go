package blocklist

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

// maxDays bounds a collection's observation days (two uint64 bitmap words).
const maxDays = 128

// Collection accumulates daily feed snapshots over one or more measurement
// windows and answers the listing-history questions the analysis needs:
// which addresses each feed listed, for how many days, and when.
type Collection struct {
	registry *Registry
	// days holds every observation date in order (at most maxDays).
	days []time.Time
	// presence[feed][addr] is a per-day bitmap of the address's presence.
	presence []map[iputil.Addr]*daySet
	recorded map[int]bool // day indexes with at least one snapshot

	// allMu guards all, the AllAddrs union built since the last Record or
	// RecordSpan; the analysis joins ask for it in parallel.
	allMu sync.Mutex
	all   *iputil.Set
}

// daySet is a bitmap over observation-day indexes.
type daySet [2]uint64

func (d *daySet) set(i int)      { d[i>>6] |= 1 << uint(i&63) }
func (d *daySet) has(i int) bool { return d[i>>6]&(1<<uint(i&63)) != 0 }

func (d *daySet) count() int {
	return bits.OnesCount64(d[0]) + bits.OnesCount64(d[1])
}

func (d *daySet) first() int {
	if d[0] != 0 {
		return bits.TrailingZeros64(d[0])
	}
	return 64 + bits.TrailingZeros64(d[1])
}

func (d *daySet) last() int {
	if d[1] != 0 {
		return 127 - bits.LeadingZeros64(d[1])
	}
	return 63 - bits.LeadingZeros64(d[0])
}

// setRange sets bits [from, to] inclusive.
func (d *daySet) setRange(from, to int) {
	for i := from; i <= to; i++ {
		d.set(i)
	}
}

// Listing is one (feed, address) pair with its presence statistics — the
// unit the paper counts ("45.1K listings").
type Listing struct {
	FeedIndex int
	Addr      iputil.Addr
	// Days is the number of observation days the address was present.
	Days int
	// First and Last are the first and last days of presence.
	First, Last time.Time
}

// NewCollection prepares a collection over the given observation days (at
// most 128).
func NewCollection(registry *Registry, days []time.Time) *Collection {
	if len(days) > maxDays {
		panic(fmt.Sprintf("blocklist: %d observation days exceed the %d-day limit", len(days), maxDays))
	}
	presence := make([]map[iputil.Addr]*daySet, registry.Len())
	for i := range presence {
		presence[i] = make(map[iputil.Addr]*daySet)
	}
	sorted := make([]time.Time, len(days))
	copy(sorted, days)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Before(sorted[j]) })
	return &Collection{
		registry: registry,
		days:     sorted,
		presence: presence,
		recorded: make(map[int]bool),
	}
}

// MeasurementDays builds the paper's two observation windows: 03 Aug – 10
// Sep 2019 (39 days) and 29 Mar – 11 May 2020 (44 days), 83 days in total.
func MeasurementDays() []time.Time {
	var days []time.Time
	add := func(start time.Time, n int) {
		for i := 0; i < n; i++ {
			days = append(days, start.AddDate(0, 0, i))
		}
	}
	add(time.Date(2019, 8, 3, 0, 0, 0, 0, time.UTC), 39)
	add(time.Date(2020, 3, 29, 0, 0, 0, 0, time.UTC), 44)
	return days
}

// Registry returns the feed registry the collection observes.
func (c *Collection) Registry() *Registry { return c.registry }

// Days returns the observation dates in order.
func (c *Collection) Days() []time.Time { return c.days }

// Record stores feed's snapshot for observation day dayIdx.
func (c *Collection) Record(dayIdx, feedIdx int, addrs *iputil.Set) error {
	if err := c.check(dayIdx, feedIdx); err != nil {
		return err
	}
	c.forgetAll()
	c.recorded[dayIdx] = true
	m := c.presence[feedIdx]
	for _, a := range addrs.Sorted() {
		ds := m[a]
		if ds == nil {
			ds = &daySet{}
			m[a] = ds
		}
		ds.set(dayIdx)
	}
	return nil
}

// RecordSpan marks addr present on feed for every day in [fromDay, toDay]
// inclusive; it is the bulk form generators use.
func (c *Collection) RecordSpan(feedIdx int, addr iputil.Addr, fromDay, toDay int) error {
	if err := c.check(fromDay, feedIdx); err != nil {
		return err
	}
	if toDay >= len(c.days) {
		toDay = len(c.days) - 1
	}
	if toDay < fromDay {
		return fmt.Errorf("blocklist: empty span [%d, %d]", fromDay, toDay)
	}
	c.forgetAll()
	for d := fromDay; d <= toDay; d++ {
		c.recorded[d] = true
	}
	m := c.presence[feedIdx]
	ds := m[addr]
	if ds == nil {
		ds = &daySet{}
		m[addr] = ds
	}
	ds.setRange(fromDay, toDay)
	return nil
}

func (c *Collection) check(dayIdx, feedIdx int) error {
	if dayIdx < 0 || dayIdx >= len(c.days) {
		return fmt.Errorf("blocklist: day index %d out of range", dayIdx)
	}
	if feedIdx < 0 || feedIdx >= len(c.presence) {
		return fmt.Errorf("blocklist: feed index %d out of range", feedIdx)
	}
	return nil
}

// Listings returns every (feed, address) listing, ordered by feed then
// address.
func (c *Collection) Listings() []Listing {
	n, widest := 0, 0
	for _, m := range c.presence {
		n += len(m)
		widest = max(widest, len(m))
	}
	out := make([]Listing, 0, n)
	addrs := make([]iputil.Addr, 0, widest)
	for fi, m := range c.presence {
		addrs = addrs[:0]
		for a := range m {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			ds := m[a]
			out = append(out, Listing{
				FeedIndex: fi,
				Addr:      a,
				Days:      ds.count(),
				First:     c.days[ds.first()],
				Last:      c.days[ds.last()],
			})
		}
	}
	return out
}

// ListingDays walks feed's listings in no particular order and calls fn
// with each address's presence-day count over every observation day and,
// in perWindow[w], within window w of Windows() (zero where the address
// was absent throughout the window). fn must not keep perWindow: it is
// reused between calls.
func (c *Collection) ListingDays(feedIdx int, fn func(addr iputil.Addr, days int, perWindow []int)) {
	ws := c.Windows()
	masks := make([]daySet, len(ws))
	for w, span := range ws {
		masks[w].setRange(span[0], span[1])
	}
	perWindow := make([]int, len(ws))
	for a, ds := range c.presence[feedIdx] {
		for w, m := range masks {
			perWindow[w] = bits.OnesCount64(ds[0]&m[0]) + bits.OnesCount64(ds[1]&m[1])
		}
		fn(a, ds.count(), perWindow)
	}
}

// Present reports whether addr was on feed on the given observation day.
func (c *Collection) Present(feedIdx, dayIdx int, addr iputil.Addr) bool {
	if c.check(dayIdx, feedIdx) != nil {
		return false
	}
	ds := c.presence[feedIdx][addr]
	return ds != nil && ds.has(dayIdx)
}

// FeedAddrs returns the set of addresses feed ever listed.
func (c *Collection) FeedAddrs(feedIdx int) *iputil.Set {
	s := iputil.NewSet()
	for a := range c.presence[feedIdx] {
		s.Add(a)
	}
	return s
}

// AllAddrs returns the union of every feed's addresses — the paper's "2.2M
// blocklisted IP addresses". The union is built on the first call after
// the collection last changed and shared by every later call until the next
// Record or RecordSpan, so callers must not modify the returned set. Calls
// may run concurrently with each other, but not with Record or RecordSpan.
func (c *Collection) AllAddrs() *iputil.Set {
	c.allMu.Lock()
	defer c.allMu.Unlock()
	if c.all == nil {
		s := iputil.NewSet()
		for _, m := range c.presence {
			for a := range m {
				s.Add(a)
			}
		}
		c.all = s
	}
	return c.all
}

// forgetAll drops the AllAddrs union before the collection changes.
func (c *Collection) forgetAll() {
	c.allMu.Lock()
	c.all = nil
	c.allMu.Unlock()
}

// FeedSizes returns, per feed, the number of unique addresses it listed.
func (c *Collection) FeedSizes() []int {
	out := make([]int, len(c.presence))
	for i, m := range c.presence {
		out[i] = len(m)
	}
	return out
}

// MeanFeedSize is the average unique-address count per feed (paper: ~30K).
func (c *Collection) MeanFeedSize() float64 {
	sizes := c.FeedSizes()
	if len(sizes) == 0 {
		return 0
	}
	sum := 0
	for _, s := range sizes {
		sum += s
	}
	return float64(sum) / float64(len(sizes))
}

// DaysObserved returns how many observation days received snapshots.
func (c *Collection) DaysObserved() int { return len(c.recorded) }

// Windows returns the contiguous runs of observation days as [first, last]
// index pairs — the paper's two measurement windows (39 and 44 days) for
// the standard days.
func (c *Collection) Windows() [][2]int {
	var out [][2]int
	for i := 0; i < len(c.days); {
		j := i
		for j+1 < len(c.days) && c.days[j+1].Sub(c.days[j]) <= 24*time.Hour {
			j++
		}
		out = append(out, [2]int{i, j})
		i = j + 1
	}
	return out
}
