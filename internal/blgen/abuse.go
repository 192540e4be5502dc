package blgen

import (
	"math"
	"math/rand"

	"github.com/reuseblock/reuseblock/internal/blocklist"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/parallel"
)

// ActorKind classifies the origin of an abuse campaign, which determines
// how the campaign maps to addresses over time.
type ActorKind int

// Actor kinds.
const (
	ActorStatic  ActorKind = iota // a static eyeball host
	ActorServer                   // a hosting-space server
	ActorDynamic                  // a user on a dynamic pool: the abuse follows the user across addresses
	ActorNAT                      // a user behind a NAT gateway: abuse shows at the shared address
)

// Campaign is one actor's span of malicious activity over the observation
// days.
type Campaign struct {
	Actor ActorKind
	Types []blocklist.Type
	// StartDay..EndDay (inclusive) index the collection's observation days.
	StartDay, EndDay int
	// Addr is the fixed source for static/server/NAT actors.
	Addr iputil.Addr
	// Pool and LeaseDays drive the per-day address of dynamic actors.
	Pool      iputil.Prefix
	LeaseDays int
	ASN       int
	seed      uint64
}

// AddrOnDay returns the campaign's source address on an observation day.
func (c *Campaign) AddrOnDay(day int) iputil.Addr {
	if c.Actor != ActorDynamic {
		return c.Addr
	}
	slot := uint64(day / c.LeaseDays)
	n := uint64(c.Pool.Size() - 2)
	return c.Pool.Nth(1 + int(hashMix(c.seed, slot)%n))
}

// typeProfile is a weighted campaign-type mixture.
type typeProfile struct {
	types  []blocklist.Type
	weight float64
}

var eyeballProfiles = []typeProfile{
	{[]blocklist.Type{blocklist.Spam, blocklist.Reputation}, 0.36},
	{[]blocklist.Type{blocklist.Bruteforce, blocklist.SSH, blocklist.Reputation}, 0.20},
	{[]blocklist.Type{blocklist.Scan, blocklist.Reputation}, 0.12},
	{[]blocklist.Type{blocklist.DDoS, blocklist.Reputation}, 0.08},
	{[]blocklist.Type{blocklist.Malware, blocklist.Reputation}, 0.08},
	{[]blocklist.Type{blocklist.HTTP, blocklist.Reputation}, 0.06},
	{[]blocklist.Type{blocklist.Ransomware, blocklist.Reputation}, 0.04},
	{[]blocklist.Type{blocklist.Backdoor, blocklist.Reputation}, 0.03},
	{[]blocklist.Type{blocklist.FTP, blocklist.Reputation}, 0.015},
	{[]blocklist.Type{blocklist.Banking, blocklist.Reputation}, 0.01},
	{[]blocklist.Type{blocklist.VOIP, blocklist.Reputation}, 0.005},
}

var serverProfiles = []typeProfile{
	{[]blocklist.Type{blocklist.Malware, blocklist.Reputation}, 0.45},
	{[]blocklist.Type{blocklist.Spam, blocklist.Reputation}, 0.25},
	{[]blocklist.Type{blocklist.HTTP, blocklist.Reputation}, 0.15},
	{[]blocklist.Type{blocklist.Ransomware, blocklist.Reputation}, 0.10},
	{[]blocklist.Type{blocklist.Banking, blocklist.Reputation}, 0.05},
}

func drawProfile(rng *rand.Rand, profiles []typeProfile) []blocklist.Type {
	total := 0.0
	for _, p := range profiles {
		total += p.weight
	}
	r := rng.Float64() * total
	for _, p := range profiles {
		if r < p.weight {
			return p.types
		}
		r -= p.weight
	}
	return profiles[len(profiles)-1].types
}

// drawCampaignSpan picks start and duration (in observation days).
func (w *World) drawCampaignSpan(rng *rand.Rand, shortFrac, meanDays float64) (start, end int) {
	n := len(w.Collection.Days())
	start = rng.Intn(n)
	var dur int
	if rng.Float64() < shortFrac {
		dur = 1 // hit-and-run bursts
	} else {
		dur = 1 + int(rng.ExpFloat64()*meanDays)
	}
	end = start + dur - 1
	if end >= n {
		end = n - 1
	}
	return start, end
}

// generateAbuse creates the campaign population.
func (w *World) generateAbuse(rng *rand.Rand) {
	btAddrs := iputil.NewSet()
	for _, u := range w.BTUsers {
		if !u.BehindNAT {
			btAddrs.Add(u.PublicAddr)
		}
	}
	for _, a := range w.ASes {
		for i := range a.Prefixes {
			pi := &a.Prefixes[i]
			switch pi.Kind {
			case KindStatic:
				for h := 1; h <= staticHostsPerPrefix; h++ {
					addr := pi.Prefix.Nth(h)
					prob := staticCompromiseFrac
					if btAddrs.Contains(addr) {
						prob = math.Min(1, prob*btCompromiseBoost)
					}
					if rng.Float64() >= prob {
						continue
					}
					start, end := w.drawCampaignSpan(rng, shortCampaignFrac, meanCampaignDays)
					w.Campaigns = append(w.Campaigns, &Campaign{
						Actor: ActorStatic, Types: drawProfile(rng, eyeballProfiles),
						StartDay: start, EndDay: end, Addr: addr, ASN: pi.ASN,
					})
				}
			case KindServer:
				for h := 1; h <= 128; h++ {
					if rng.Float64() >= serverCompromiseFrac {
						continue
					}
					start, end := w.drawCampaignSpan(rng, shortCampaignFrac, meanCampaignDays*1.5)
					w.Campaigns = append(w.Campaigns, &Campaign{
						Actor: ActorServer, Types: drawProfile(rng, serverProfiles),
						StartDay: start, EndDay: end, Addr: pi.Prefix.Nth(h), ASN: pi.ASN,
					})
				}
			case KindDynamic:
				// Compromised users whose abuse follows them across the
				// pool as leases turn over.
				users := poisson(rng, dynamicUsersPerPrefix)
				leaseDays := pi.MeanLeaseHours / 24
				if leaseDays < 1 {
					leaseDays = 1
				}
				for u := 0; u < users; u++ {
					start, end := w.drawCampaignSpan(rng, shortCampaignFrac, meanCampaignDays)
					w.Campaigns = append(w.Campaigns, &Campaign{
						Actor: ActorDynamic, Types: drawProfile(rng, eyeballProfiles),
						StartDay: start, EndDay: end,
						Pool: pi.Prefix, LeaseDays: leaseDays, ASN: pi.ASN,
						seed: hashMix(uint64(pi.Prefix.Base()), uint64(u)+7),
					})
				}
			}
		}
	}
	// NATed actors: each compromised internal user runs one campaign from
	// the shared address. Machines behind NATs stay infected longer (they
	// are harder to notify and clean).
	for _, nat := range w.NATs {
		for u := 0; u < nat.TotalUsers; u++ {
			if rng.Float64() >= natUserCompromiseFrac {
				continue
			}
			nat.CompromisedUsers++
			start, end := w.drawCampaignSpan(rng, natShortCampaignFrac, natMeanCampaignDays)
			w.Campaigns = append(w.Campaigns, &Campaign{
				Actor: ActorNAT, Types: drawProfile(rng, eyeballProfiles),
				StartDay: start, EndDay: end, Addr: nat.Addr, ASN: nat.ASN,
			})
		}
	}
}

// feedProfile is a maintainer's observation behaviour: a vantage (which
// ASes its sensors cover; nil means global) plus a per-campaign detection
// probability and delisting-lag distribution.
type feedProfile struct {
	detectP      float64
	vantage      map[int]bool // ASN set; nil = global sensor
	lag1P, lag2P float64
}

func (fp *feedProfile) covers(asn int) bool {
	return fp.vantage == nil || fp.vantage[asn]
}

// topFeeds are the feeds the paper names as carrying the most reused
// addresses; they get top-tier detection probability.
var topFeeds = map[string]bool{
	"stopforumspam":       true,
	"nixspam":             true,
	"alienvault":          true,
	"cleantalk":           true,
	"bad-ips-01":          true,
	"bad-ips-02":          true,
	"blocklist-de-01":     true,
	"project-honeypot-01": true,
	"sblam":               true,
	"botscout":            true,
}

// typeMatch reports whether a feed of feedType would list a campaign with
// the given type mixture.
func typeMatch(feedType blocklist.Type, types []blocklist.Type) bool {
	for _, t := range types {
		if t == feedType {
			return true
		}
	}
	return false
}

// feedSeed derives feed fi's RNG sub-seed from the world seed. Every feed
// owns an independent stream, so feeds can be generated in any order — or
// concurrently — with identical output.
func feedSeed(worldSeed int64, fi int) int64 {
	return int64(hashMix(uint64(worldSeed)^0x46454544, uint64(fi)+1)) // "FEED"
}

// listingSpan is one recorded presence run: addr listed on [from, to].
type listingSpan struct {
	addr     iputil.Addr
	from, to int
}

// buildFeeds plays every campaign against every feed and fills the
// collection with daily listings. Each feed draws from its own sub-seeded
// RNG stream and plays the (shared, frozen) campaign population
// independently of every other feed, so the maintainer feeds are generated
// concurrently under p.Workers with bit-for-bit deterministic output.
func (w *World) buildFeeds(rng *rand.Rand) {
	p := &w.Params

	// Feed population is bimodal, which is what produces the paper's
	// "40-47% of lists carry no reused addresses" alongside substantial
	// average list sizes: top community feeds see globally at a high rate;
	// "broad" aggregators see globally at a low rate; "tiny" sensor feeds
	// see only the handful of ASes their honeypots sit in. Profiles draw
	// from the world RNG sequentially (cheap, order-dependent).
	profiles := make([]feedProfile, w.Registry.Len())
	for i, f := range w.Registry.Feeds {
		prof := feedProfile{lag1P: p.DelistLag1P, lag2P: delistLag2P}
		switch {
		case topFeeds[f.Name]:
			prof.detectP = p.TopFeedDetectP * (0.8 + rng.Float64()*0.4)
		case rng.Float64() < 0.48:
			// Broad aggregator: global vantage, low per-campaign rate.
			u := rng.Float64()
			prof.detectP = 0.02 + 0.15*u*u*u
		default:
			// Tiny sensor feed: one or two ASes, high local rate.
			k := 1 + rng.Intn(2)
			prof.vantage = make(map[int]bool, k)
			for j := 0; j < k; j++ {
				prof.vantage[w.ASes[rng.Intn(len(w.ASes))].ASN] = true
			}
			prof.detectP = p.BaseFeedDetectP * (1 + rng.Float64())
		}
		if prof.detectP > 0.95 {
			prof.detectP = 0.95
		}
		profiles[i] = prof
	}

	// Play the campaigns against every feed concurrently (campaigns,
	// profiles and the registry are frozen here), then record the spans
	// into the collection sequentially in feed order — RecordSpan mutates
	// shared collection state and is cheap next to the playback.
	spansPerFeed := parallel.Map(p.Workers, w.Registry.Len(), func(fi int) []listingSpan {
		return w.playFeed(fi, &profiles[fi])
	})
	for fi, spans := range spansPerFeed {
		for _, s := range spans {
			_ = w.Collection.RecordSpan(fi, s.addr, s.from, s.to)
		}
	}
}

// playFeed plays every campaign against one feed, drawing detection, lag
// and delisting from the feed's own sub-seeded stream, and returns the
// listing spans in deterministic (campaign, day) order.
func (w *World) playFeed(fi int, prof *feedProfile) []listingSpan {
	p := &w.Params
	feed := &w.Registry.Feeds[fi]
	frng := rand.New(rand.NewSource(feedSeed(p.Seed, fi)))
	nDays := len(w.Collection.Days())
	var spans []listingSpan
	for _, c := range w.Campaigns {
		if !typeMatch(feed.Type, c.Types) {
			continue
		}
		if !prof.covers(c.ASN) {
			continue
		}
		if frng.Float64() >= prof.detectP {
			continue
		}
		// Detection lag.
		var lag int
		switch r := frng.Float64(); {
		case r < 0.6:
			lag = 0
		case r < 0.9:
			lag = 1
		default:
			lag = 2
		}
		firstSeen := c.StartDay + lag
		if firstSeen > c.EndDay {
			continue // campaign over before the feed noticed
		}
		// Delisting lag after the last event at each address.
		var delist int
		switch r := frng.Float64(); {
		case r < prof.lag1P:
			delist = 1
		case r < prof.lag1P+prof.lag2P:
			delist = 2
		default:
			delist = 3
			for delist < 14 && frng.Float64() < 0.5 {
				delist++
			}
		}
		// Walk the campaign's address runs and record listing spans.
		runStart := firstSeen
		for d := firstSeen; d <= c.EndDay; d++ {
			if d+1 <= c.EndDay && c.AddrOnDay(d+1) == c.AddrOnDay(d) {
				continue
			}
			addr := c.AddrOnDay(d)
			to := d + delist - 1
			if to >= nDays {
				to = nDays - 1
			}
			// The listing covers activity days plus the delist lag.
			spans = append(spans, listingSpan{addr: addr, from: runStart, to: to})
			runStart = d + 1
		}
	}
	return spans
}

// poisson draws a Poisson variate with the given mean.
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}
