package blgen

import (
	"math/rand"
	"time"

	"github.com/reuseblock/reuseblock/internal/blocklist"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/ripeatlas"
)

// NATTruth is the ground truth for one NAT gateway address.
type NATTruth struct {
	Addr iputil.Addr
	ASN  int
	// TotalUsers share the gateway; BTUsers of them run BitTorrent.
	TotalUsers int
	BTUsers    int
	// Restricted gateways filter unsolicited inbound (the crawler cannot
	// confirm them — systematic undercounting).
	Restricted bool
	// CompromisedUsers run abuse campaigns from behind the gateway.
	CompromisedUsers int
}

// BTUser is one BitTorrent participant the swarm builder instantiates.
type BTUser struct {
	ID int
	// PublicAddr is the externally visible address (the NAT gateway for
	// NATed users).
	PublicAddr iputil.Addr
	// PrivateAddr is the RFC 1918 address for NATed users; equal to
	// PublicAddr otherwise.
	PrivateAddr iputil.Addr
	Port        uint16
	BehindNAT   bool
	ASN         int
}

// World is the generated universe plus every derived dataset.
type World struct {
	Params   Params
	Registry *blocklist.Registry
	ASes     []*AS

	// PrefixTable maps any address to its /24's PrefixInfo.
	PrefixTable *iputil.Table[*PrefixInfo]

	// Ground truth.
	NATs            []*NATTruth
	NATByIP         map[iputil.Addr]*NATTruth
	TrueFastDynamic *iputil.PrefixSet // pools with ≈ daily reallocation
	TrueAnyDynamic  *iputil.PrefixSet // all dynamic pools

	// Populations.
	BTUsers []BTUser

	// Datasets.
	Campaigns  []*Campaign
	Collection *blocklist.Collection
	RIPELogs   []ripeatlas.LogEntry
	RIPEStart  time.Time
}

// Generate builds the world.
func Generate(p Params) *World {
	if p.Scale <= 0 {
		p.Scale = 1
	}
	rng := rand.New(rand.NewSource(p.Seed))
	w := &World{
		Params:          p,
		Registry:        blocklist.StandardRegistry(),
		PrefixTable:     iputil.NewTable[*PrefixInfo](),
		NATByIP:         make(map[iputil.Addr]*NATTruth),
		TrueFastDynamic: iputil.NewPrefixSet(),
		TrueAnyDynamic:  iputil.NewPrefixSet(),
	}
	w.Collection = blocklist.NewCollection(w.Registry, blocklist.MeasurementDays())
	w.ASes = buildTopology(rng, &p)
	for _, a := range w.ASes {
		for i := range a.Prefixes {
			pi := &a.Prefixes[i]
			w.PrefixTable.Insert(pi.Prefix, pi)
			if pi.Kind == KindDynamic {
				w.TrueAnyDynamic.Add(pi.Prefix)
				if pi.MeanLeaseHours <= 24 {
					w.TrueFastDynamic.Add(pi.Prefix)
				}
			}
		}
	}
	w.populateNATs(rng)
	w.populateBitTorrent(rng)
	w.generateRIPE(rng)
	w.generateAbuse(rng)
	w.buildFeeds(rng)
	return w
}

// populateNATs draws gateway populations for every CGN prefix.
func (w *World) populateNATs(rng *rand.Rand) {
	p := &w.Params
	for _, a := range w.ASes {
		for i := range a.Prefixes {
			pi := &a.Prefixes[i]
			if pi.Kind != KindCGN {
				continue
			}
			for g := 0; g < p.GatewaysPerCGNPrefix; g++ {
				nat := &NATTruth{
					Addr:       pi.Prefix.Nth(g + 1),
					ASN:        pi.ASN,
					TotalUsers: drawNATUsers(rng),
					Restricted: rng.Float64() < natRestrictedFrac,
				}
				nat.BTUsers = drawBTUsers(rng, nat.TotalUsers, a.BTPop, p)
				w.NATs = append(w.NATs, nat)
				w.NATByIP[nat.Addr] = nat
			}
		}
	}
}

// drawNATUsers samples the household/subscriber count behind a gateway:
// mostly small home NATs, some mid-size, a few large CGN segments.
func drawNATUsers(rng *rand.Rand) int {
	switch r := rng.Float64(); {
	case r < 0.72:
		return 2 + rng.Intn(5) // 2..6
	case r < 0.98:
		return 8 + rng.Intn(23) // 8..30
	default:
		return 40 + rng.Intn(81) // 40..120 (CGN segments)
	}
}

// drawBTUsers samples how many users behind a gateway run BitTorrent; the
// 2+ region is what the crawler can confirm (Fig 8).
func drawBTUsers(rng *rand.Rand, total int, btPopular bool, p *Params) int {
	zero, one := p.NATZeroBTFrac, p.NATOneBTFrac
	if !btPopular {
		zero += (1 - zero) * 0.7
	}
	r := rng.Float64()
	var k int
	switch {
	case r < zero:
		k = 0
	case r < zero+one:
		k = 1
	default:
		// 2+ tail: geometric-ish small counts; large gateways scale with
		// their population so CGN segments reach the Fig 8 tail (≈78).
		if total >= 40 {
			k = int(float64(total) * (0.5 + rng.Float64()*0.35))
		} else {
			k = 2
			for k < 10 && rng.Float64() < 0.22 {
				k++
			}
		}
	}
	if k > total {
		k = total
	}
	return k
}

// populateBitTorrent instantiates the BT user population.
func (w *World) populateBitTorrent(rng *rand.Rand) {
	id := 1
	for _, a := range w.ASes {
		if a.Kind != ASEyeball {
			continue
		}
		for i := range a.Prefixes {
			pi := &a.Prefixes[i]
			switch pi.Kind {
			case KindStatic:
				if !a.BTPop {
					continue
				}
				for h := 0; h < staticHostsPerPrefix; h++ {
					if rng.Float64() >= btStaticFrac {
						continue
					}
					addr := pi.Prefix.Nth(h + 1)
					w.BTUsers = append(w.BTUsers, BTUser{
						ID: id, PublicAddr: addr, PrivateAddr: addr,
						Port: uint16(6881 + rng.Intn(200)), ASN: pi.ASN,
					})
					id++
				}
			case KindDynamic:
				if !a.BTPop {
					continue
				}
				// Each occupied lease holds one distinct user; a BT user's
				// address during the crawl window is their current lease.
				for h := 1; h <= pi.Prefix.Size()-2; h++ {
					if rng.Float64() >= dynamicOccupancy*btDynamicFrac {
						continue
					}
					addr := pi.Prefix.Nth(h)
					w.BTUsers = append(w.BTUsers, BTUser{
						ID: id, PublicAddr: addr, PrivateAddr: addr,
						Port: uint16(6881 + rng.Intn(200)), ASN: pi.ASN,
					})
					id++
				}
			}
		}
	}
	// NATed users.
	for _, nat := range w.NATs {
		for u := 0; u < nat.BTUsers; u++ {
			w.BTUsers = append(w.BTUsers, BTUser{
				ID:          id,
				PublicAddr:  nat.Addr,
				PrivateAddr: iputil.AddrFrom4(192, 168, byte(u/250), byte(u%250+2)),
				Port:        6881,
				BehindNAT:   true,
				ASN:         nat.ASN,
			})
			id++
		}
	}
}

// generateRIPE deploys probes and plays the fleet over ripeMonths.
func (w *World) generateRIPE(rng *rand.Rand) {
	p := &w.Params
	w.RIPEStart = time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	duration := time.Duration(ripeMonths) * 30 * 24 * time.Hour
	var specs []ripeatlas.ProbeSpec
	probeID := 1
	// Collect candidate prefixes of other ASes for movers.
	var allPrefixes []PrefixInfo
	for _, a := range w.ASes {
		for _, pi := range a.Prefixes {
			if pi.Kind == KindStatic || pi.Kind == KindDynamic {
				allPrefixes = append(allPrefixes, pi)
			}
		}
	}
	for _, a := range w.ASes {
		if !a.Probes || len(a.Prefixes) == 0 {
			continue
		}
		// Probes lean toward residential (often dynamic) space — Atlas
		// hosts are home volunteers. At this scale the first probes of
		// each covered AS are pinned to its dynamic pools so coverage of
		// dynamic space is stable across seeds, standing in for the
		// paper's much larger fleet.
		var dynIdx []int
		for j, pj := range a.Prefixes {
			if pj.Kind == KindDynamic {
				dynIdx = append(dynIdx, j)
			}
		}
		for n := 0; n < p.ProbesPerAS; n++ {
			var pi PrefixInfo
			switch {
			case n < len(dynIdx) && n < p.ProbesPerAS/2+1:
				pi = a.Prefixes[dynIdx[n]]
			case len(dynIdx) > 0 && rng.Float64() < 0.3:
				pi = a.Prefixes[dynIdx[rng.Intn(len(dynIdx))]]
			default:
				pi = a.Prefixes[rng.Intn(len(a.Prefixes))]
			}
			if pi.Kind == KindCGN || pi.Kind == KindUnused || pi.Kind == KindServer {
				// Probes sit in end-user space.
				pi.Kind = KindStatic
			}
			spec := ripeatlas.ProbeSpec{
				ID:   probeID,
				ASN:  pi.ASN,
				Pool: pi.Prefix,
				// Flaky uplinks reconnect now and then.
				ReconnectEvery: time.Duration(20+rng.Intn(40)) * 24 * time.Hour,
			}
			probeID++
			if pi.Kind == KindDynamic {
				spec.MeanLease = time.Duration(pi.MeanLeaseHours) * time.Hour
			}
			if rng.Float64() < p.MoverFrac && len(allPrefixes) > 1 {
				dst := allPrefixes[rng.Intn(len(allPrefixes))]
				for dst.ASN == pi.ASN {
					dst = allPrefixes[rng.Intn(len(allPrefixes))]
				}
				spec.MoveAt = time.Duration(60+rng.Intn(ripeMonths*30-120)) * 24 * time.Hour
				spec.MovePool = dst.Prefix
				spec.MoveASN = dst.ASN
			}
			specs = append(specs, spec)
		}
	}
	w.RIPELogs = ripeatlas.SimulateFleet(ripeatlas.FleetParams{
		Seed:     w.Params.Seed ^ 0x52495045, // "RIPE"
		Start:    w.RIPEStart,
		Duration: duration,
		Probes:   specs,
	})
}

// PrefixOf returns the prefix info covering addr.
func (w *World) PrefixOf(addr iputil.Addr) (*PrefixInfo, bool) {
	return w.PrefixTable.Lookup(addr)
}

// Block implements the icmpsurvey.Responder contract over world ground
// truth: it resolves block's /24 once — one prefix-table walk and one
// ICMPFiltered/Kind switch — and returns the per-address answer for
// addresses inside block, with the block's constants captured, plus the
// exact instant the answer may next change. The baseline's documented blind
// spots are modelled: CGN gateways answer like middleboxes, ICMP-filtered
// networks never answer, dynamic pools answer only while a lease is
// occupied. Only a dynamic pool's hosts ever change their answer, at the
// end of the current lease slot; every other answer holds forever (a zero
// until). Every world prefix is a /24, so block must lie within one /24;
// Block panics on a wider block.
func (w *World) Block(block iputil.Prefix) func(addr iputil.Addr, at time.Time) (bool, time.Time) {
	if block.Bits() < 24 {
		panic("blgen: World.Block needs a block within one /24, got " + block.String())
	}
	pi, ok := w.PrefixOf(block.Base())
	if !ok || pi.ICMPFiltered {
		return silent
	}
	switch pi.Kind {
	case KindServer:
		return func(addr iputil.Addr, _ time.Time) (bool, time.Time) {
			host := int(addr) & 0xff
			return host >= 1 && host <= 128, time.Time{} // dense, always-on farms
		}
	case KindStatic:
		return func(addr iputil.Addr, _ time.Time) (bool, time.Time) {
			host := int(addr) & 0xff
			if host < 1 || host > staticHostsPerPrefix {
				return false, time.Time{}
			}
			return hashMix(uint64(addr), 0)%10 < 9, time.Time{} // 90% of hosts answer
		}
	case KindCGN:
		// Gateways reply on behalf of everything behind them.
		gateways := w.Params.GatewaysPerCGNPrefix
		return func(addr iputil.Addr, _ time.Time) (bool, time.Time) {
			host := int(addr) & 0xff
			return host >= 1 && host <= gateways, time.Time{}
		}
	case KindDynamic:
		leaseNs := int64(time.Duration(pi.MeanLeaseHours) * time.Hour)
		startNs := w.RIPEStart.UnixNano()
		return func(addr iputil.Addr, at time.Time) (bool, time.Time) {
			host := int(addr) & 0xff
			if host < 1 || host > 254 {
				return false, time.Time{}
			}
			atNs := at.UnixNano()
			q := (atNs - startNs) / leaseNs
			// Division truncates toward zero, so slot 0 spans
			// (-lease, +lease) around RIPEStart and a slot q < 0 spans
			// ((q-1)·lease, q·lease]: before RIPEStart a slot ends one
			// nanosecond past its upper bound.
			endNs := startNs + (q+1)*leaseNs
			if q < 0 {
				endNs = startNs + q*leaseNs + 1
			}
			occupied := float64(hashMix(uint64(addr), uint64(q))%1000) / 1000
			return occupied < dynamicOccupancy, at.Add(time.Duration(endNs - atNs))
		}
	default:
		return silent
	}
}

// silent is the responder of a block that never answers: outside the
// world, ICMP-filtered, or unused space.
func silent(iputil.Addr, time.Time) (bool, time.Time) { return false, time.Time{} }

// Responds answers whether addr would reply to an ICMP ECHO at time at. It
// resolves addr's /24 on every call; a survey probing a whole block calls
// Block once instead.
func (w *World) Responds(addr iputil.Addr, at time.Time) bool {
	up, _ := w.Block(addr.Slash24())(addr, at)
	return up
}

// hashMix is a small deterministic mixer for occupancy schedules.
func hashMix(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 + b*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return x
}

// BlocklistedSpace returns the /24 prefixes containing blocklisted
// addresses — the scope the paper restricts its crawler to.
func (w *World) BlocklistedSpace() *iputil.PrefixSet {
	return w.Collection.AllAddrs().Slash24s()
}
