// Package analysis joins reused-address detections (the crawler's NATed
// addresses and the RIPE pipeline's dynamic prefixes) with blocklist listing
// histories, producing every quantity in the paper's evaluation: per-list
// reuse counts (Figs 5–6), listing-duration distributions (Fig 7), the
// users-behind-NAT distribution (Fig 8), AS-level overlap (Fig 3), the
// detection funnel (Fig 4), and the top-list concentration statistics (§5).
package analysis

import (
	"sort"

	"github.com/reuseblock/reuseblock/internal/blocklist"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/parallel"
	"github.com/reuseblock/reuseblock/internal/stats"
)

// Inputs carries the datasets the analysis joins. NATUsers maps each
// detected NATed address to the crawler's lower bound on simultaneous
// users. DynamicPrefixes is the RIPE pipeline's output; RIPEPrefixes is the
// full probe-covered prefix set (the coverage denominator). CaiBlocks is the
// optional ICMP baseline. ASNOf maps addresses to origin AS numbers.
type Inputs struct {
	Collection      *blocklist.Collection
	NATUsers        map[iputil.Addr]int
	BTObserved      *iputil.Set
	DynamicPrefixes *iputil.PrefixSet
	RIPEPrefixes    *iputil.PrefixSet
	CaiBlocks       *iputil.PrefixSet
	ASNOf           func(iputil.Addr) (int, bool)

	// Workers bounds the parallelism of the Compute* joins. The joins are
	// sharded over listings/addresses and merged with commutative
	// operations (sums, maxima, set unions), so any worker count produces
	// bit-for-bit identical results: <= 0 means GOMAXPROCS, 1 is the
	// sequential path. All other Inputs fields (and ASNOf) must be
	// read-only while a Compute* call runs.
	Workers int
}

func (in *Inputs) isNATed(a iputil.Addr) bool {
	_, ok := in.NATUsers[a]
	return ok
}

func (in *Inputs) isDynamic(a iputil.Addr) bool {
	return in.DynamicPrefixes != nil && in.DynamicPrefixes.Covers(a)
}

func (in *Inputs) isCaiDynamic(a iputil.Addr) bool {
	return in.CaiBlocks != nil && in.CaiBlocks.Covers(a)
}

// PerListReuse is the Fig 5 / Fig 6 result.
type PerListReuse struct {
	// NATedPerFeed[i] is the count of NATed addresses feed i listed;
	// likewise for the dynamic variants.
	NATedPerFeed      []int
	DynamicPerFeed    []int
	CaiDynamicPerFeed []int

	// Zero-feed counts ("61 blocklists do not list any NATed address").
	FeedsWithoutNATed   int
	FeedsWithoutDynamic int

	// Listing totals ("45.1K listings ... 30.6K listings").
	NATedListings      int
	DynamicListings    int
	CaiDynamicListings int

	// Unique reused addresses on any list.
	NATedAddrs   int
	DynamicAddrs int

	// Averages per feed ("a blocklist lists 501 NATed IP addresses ...").
	MeanNATedPerFeed   float64
	MeanDynamicPerFeed float64

	// Top-10 concentration ("top 10 blocklists contribute 65.9% ... 72.6%").
	Top10NATedShare   float64
	Top10DynamicShare float64

	// TopNATedFeeds / TopDynamicFeeds name the highest-presence feeds.
	TopNATedFeeds   []FeedCount
	TopDynamicFeeds []FeedCount
}

// FeedCount names one feed with a count.
type FeedCount struct {
	Feed  string
	Count int
}

// ComputePerListReuse joins listings with the reuse detections. The join is
// sharded over the listing slice; per-shard counters and address sets merge
// by addition and union, so the result is identical for any worker count.
func ComputePerListReuse(in *Inputs) *PerListReuse {
	reg := in.Collection.Registry()
	out := &PerListReuse{
		NATedPerFeed:      make([]int, reg.Len()),
		DynamicPerFeed:    make([]int, reg.Len()),
		CaiDynamicPerFeed: make([]int, reg.Len()),
	}
	type shard struct {
		nated, dynamic, cai    []int
		natedN, dynamicN, caiN int
		natAddrs, dynAddrs     *iputil.Set
	}
	listings := in.Collection.Listings()
	workers := parallel.Workers(in.Workers)
	chunks := parallel.Chunks(len(listings), workers)
	shards := parallel.Map(workers, len(chunks), func(ci int) *shard {
		s := &shard{
			nated:    make([]int, reg.Len()),
			dynamic:  make([]int, reg.Len()),
			cai:      make([]int, reg.Len()),
			natAddrs: iputil.NewSet(),
			dynAddrs: iputil.NewSet(),
		}
		for _, l := range listings[chunks[ci][0]:chunks[ci][1]] {
			if in.isNATed(l.Addr) {
				s.nated[l.FeedIndex]++
				s.natedN++
				s.natAddrs.Add(l.Addr)
			}
			if in.isDynamic(l.Addr) {
				s.dynamic[l.FeedIndex]++
				s.dynamicN++
				s.dynAddrs.Add(l.Addr)
			}
			if in.isCaiDynamic(l.Addr) {
				s.cai[l.FeedIndex]++
				s.caiN++
			}
		}
		return s
	})
	natAddrs := iputil.NewSet()
	dynAddrs := iputil.NewSet()
	for _, s := range shards {
		for i := 0; i < reg.Len(); i++ {
			out.NATedPerFeed[i] += s.nated[i]
			out.DynamicPerFeed[i] += s.dynamic[i]
			out.CaiDynamicPerFeed[i] += s.cai[i]
		}
		out.NATedListings += s.natedN
		out.DynamicListings += s.dynamicN
		out.CaiDynamicListings += s.caiN
		natAddrs.AddSet(s.natAddrs)
		dynAddrs.AddSet(s.dynAddrs)
	}
	out.NATedAddrs = natAddrs.Len()
	out.DynamicAddrs = dynAddrs.Len()
	for i := 0; i < reg.Len(); i++ {
		if out.NATedPerFeed[i] == 0 {
			out.FeedsWithoutNATed++
		}
		if out.DynamicPerFeed[i] == 0 {
			out.FeedsWithoutDynamic++
		}
	}
	out.MeanNATedPerFeed = float64(out.NATedListings) / float64(reg.Len())
	out.MeanDynamicPerFeed = float64(out.DynamicListings) / float64(reg.Len())
	out.Top10NATedShare = stats.TopShare(out.NATedPerFeed, 10)
	out.Top10DynamicShare = stats.TopShare(out.DynamicPerFeed, 10)
	out.TopNATedFeeds = topFeeds(reg, out.NATedPerFeed, 3)
	out.TopDynamicFeeds = topFeeds(reg, out.DynamicPerFeed, 3)
	return out
}

func topFeeds(reg *blocklist.Registry, counts []int, k int) []FeedCount {
	idx := make([]int, len(counts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if counts[idx[a]] != counts[idx[b]] {
			return counts[idx[a]] > counts[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]FeedCount, 0, k)
	for _, i := range idx[:k] {
		out = append(out, FeedCount{Feed: reg.Feeds[i].Name, Count: counts[i]})
	}
	return out
}

// Figure5 renders the ranked NATed-addresses-per-blocklist series.
func (r *PerListReuse) Figure5() *stats.Figure {
	f := stats.NewFigure("Figure 5: NATed addresses in blocklists", "(#) of blocklists", "log(#)")
	f.Add("NATed per blocklist (ranked)", rankedPoints(r.NATedPerFeed))
	return f
}

// Figure6 renders the ranked dynamic-addresses-per-blocklist series with the
// Cai et al. baseline.
func (r *PerListReuse) Figure6() *stats.Figure {
	f := stats.NewFigure("Figure 6: Dynamic addresses in blocklists", "(#) of blocklists", "log(#)")
	f.Add("RIPE", rankedPoints(r.DynamicPerFeed))
	f.Add("Cai et al.", rankedPoints(r.CaiDynamicPerFeed))
	return f
}

func rankedPoints(counts []int) []stats.Point {
	ranked := stats.RankDescending(counts)
	var pts []stats.Point
	for i, c := range ranked {
		if c == 0 {
			break
		}
		pts = append(pts, stats.Point{X: float64(i + 1), Y: float64(c)})
	}
	return pts
}

// Durations is the Fig 7 result.
type Durations struct {
	All, NATed, Dynamic *stats.CDF
	// Mean listing days per class ("removed within nine days...").
	AllMean, NATedMean, DynamicMean float64
	// TwoDayRemoval is the fraction of listings gone within two days
	// ("77.5% of all dynamic addresses are removed ... compared to 60% of
	// NATed ... 42% of all").
	AllTwoDay, NATedTwoDay, DynamicTwoDay float64
	// MaxReusedDays is the longest reused-address listing counted across
	// all observation days.
	MaxReusedDays int
	// MaxReusedPerWindow is the longest reused-address listing within
	// each measurement window separately — the paper's "as many as 44
	// days" is the window-2 bound (44 observation days).
	MaxReusedPerWindow []int
}

// ComputeDurations builds the Fig 7 distributions from one walk over every
// feed's listings, which yields each listing's day count over all
// observation days and within each window. Shards of feeds collect duration
// samples independently; the CDFs sort the merged multiset, and maxima
// merge by max, so neither sharding nor walk order can change the result.
func ComputeDurations(in *Inputs) *Durations {
	type shard struct {
		all, nated, dynamic []float64
		maxReused           int
		maxReusedPerWindow  []int
	}
	windows := len(in.Collection.Windows())
	feeds := in.Collection.Registry().Len()
	workers := parallel.Workers(in.Workers)
	chunks := parallel.Chunks(feeds, workers)
	shards := parallel.Map(workers, len(chunks), func(ci int) *shard {
		s := &shard{maxReusedPerWindow: make([]int, windows)}
		for fi := chunks[ci][0]; fi < chunks[ci][1]; fi++ {
			in.Collection.ListingDays(fi, func(addr iputil.Addr, days int, perWindow []int) {
				d := float64(days)
				s.all = append(s.all, d)
				reused := false
				if in.isNATed(addr) {
					s.nated = append(s.nated, d)
					reused = true
				}
				if in.isDynamic(addr) {
					s.dynamic = append(s.dynamic, d)
					reused = true
				}
				if !reused {
					return
				}
				s.maxReused = max(s.maxReused, days)
				for w, n := range perWindow {
					s.maxReusedPerWindow[w] = max(s.maxReusedPerWindow[w], n)
				}
			})
		}
		return s
	})
	var all, nated, dynamic []float64
	out := &Durations{MaxReusedPerWindow: make([]int, windows)}
	for _, s := range shards {
		all = append(all, s.all...)
		nated = append(nated, s.nated...)
		dynamic = append(dynamic, s.dynamic...)
		out.MaxReusedDays = max(out.MaxReusedDays, s.maxReused)
		for w, n := range s.maxReusedPerWindow {
			out.MaxReusedPerWindow[w] = max(out.MaxReusedPerWindow[w], n)
		}
	}
	out.All, out.NATed, out.Dynamic = stats.NewCDF(all), stats.NewCDF(nated), stats.NewCDF(dynamic)
	out.AllMean, out.NATedMean, out.DynamicMean = out.All.Mean(), out.NATed.Mean(), out.Dynamic.Mean()
	out.AllTwoDay, out.NATedTwoDay, out.DynamicTwoDay = out.All.At(2), out.NATed.At(2), out.Dynamic.At(2)
	return out
}

// Figure7 renders the duration CDFs.
func (d *Durations) Figure7() *stats.Figure {
	f := stats.NewFigure("Figure 7: Duration distribution of reused addresses",
		"(#) of days in blocklists", "CDF of IP addresses")
	f.AddCDF("blocklisted addresses", d.All, 45)
	f.AddCDF("NATed addresses", d.NATed, 45)
	f.AddCDF("dynamic addresses", d.Dynamic, 45)
	return f
}

// NATUsers is the Fig 8 result: the distribution of the user lower bound
// over blocklisted NATed addresses.
type NATUsers struct {
	CDF *stats.CDF
	// ExactlyTwo is the fraction of addresses with exactly two detected
	// users (paper: 68.5%); UnderTen with fewer than ten (97.8%).
	ExactlyTwo float64
	UnderTen   float64
	Max        int
}

// ComputeNATUsers builds Fig 8 over blocklisted NATed addresses.
func ComputeNATUsers(in *Inputs) *NATUsers {
	blocklisted := in.Collection.AllAddrs()
	var users []float64
	exactly2, under10, max := 0, 0, 0
	n := 0
	for addr, u := range in.NATUsers {
		if !blocklisted.Contains(addr) {
			continue
		}
		n++
		users = append(users, float64(u))
		if u == 2 {
			exactly2++
		}
		if u < 10 {
			under10++
		}
		if u > max {
			max = u
		}
	}
	out := &NATUsers{CDF: stats.NewCDF(users), Max: max}
	if n > 0 {
		out.ExactlyTwo = float64(exactly2) / float64(n)
		out.UnderTen = float64(under10) / float64(n)
	}
	return out
}

// Figure8 renders the users-behind-NAT CDF.
func (n *NATUsers) Figure8() *stats.Figure {
	f := stats.NewFigure("Figure 8: Number of users behind NATed addresses in blocklists",
		"(#) of users with the same IP address", "CDF of IP addresses")
	f.AddCDF("blocklisted NATed addresses", n.CDF, 40)
	return f
}
