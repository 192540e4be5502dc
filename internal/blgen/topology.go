package blgen

import (
	"math"
	"math/rand"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

// PrefixKind classifies a /24's address-allocation policy — the ground truth
// the detectors are measured against.
type PrefixKind int

// Prefix kinds.
const (
	KindUnused  PrefixKind = iota
	KindStatic             // statically addressed eyeball space
	KindDynamic            // DHCP pool: one IP serves many users over time
	KindCGN                // carrier-grade/home NAT gateways: one IP, many users at once
	KindServer             // hosting/datacenter space
)

// String names the kind.
func (k PrefixKind) String() string {
	switch k {
	case KindStatic:
		return "static"
	case KindDynamic:
		return "dynamic"
	case KindCGN:
		return "cgn"
	case KindServer:
		return "server"
	default:
		return "unused"
	}
}

// Region is a coarse probe-deployment region.
type Region int

// Regions; RIPE probes concentrate in Europe and North America.
const (
	RegionEU Region = iota
	RegionNA
	RegionOther
)

// ASKind classifies an autonomous system.
type ASKind int

// AS kinds.
const (
	ASEyeball ASKind = iota
	ASHosting
	ASStub
)

// PrefixInfo is one /24 with its allocation policy.
type PrefixInfo struct {
	Prefix iputil.Prefix
	Kind   PrefixKind
	ASN    int
	// MeanLeaseHours is the DHCP lease churn for dynamic pools (hours);
	// fast pools (≈ daily or quicker) are what the paper's pipeline
	// should detect.
	MeanLeaseHours int
	// ICMPFiltered marks prefixes whose network drops ICMP (a documented
	// weakness of the Cai et al. baseline).
	ICMPFiltered bool
}

// AS is one autonomous system.
type AS struct {
	ASN      int
	Kind     ASKind
	Region   Region
	BTPop    bool // BitTorrent is popular here
	Probes   bool // hosts RIPE Atlas probes
	Prefixes []PrefixInfo
}

// buildTopology creates the AS-level world.
func buildTopology(rng *rand.Rand, p *Params) []*AS {
	var ases []*AS
	asn := 64500
	nextSlash16 := 0
	// allocPrefix hands out globally unique /24s: walk 10.x.y.0/24 style
	// space across 60.0.0.0..99.255.255.0 (synthetic, not real routing).
	allocPrefix := func() iputil.Prefix {
		i := nextSlash16
		nextSlash16++
		a := byte(60 + i/65536%40)
		b := byte(i / 256 % 256)
		c := byte(i % 256)
		return iputil.PrefixFrom(iputil.AddrFrom4(a, b, c, 0), 24)
	}
	mkAS := func(kind ASKind, size int) *AS {
		a := &AS{ASN: asn, Kind: kind}
		asn++
		switch r := rng.Float64(); {
		case r < 0.4:
			a.Region = RegionEU
		case r < 0.7:
			a.Region = RegionNA
		default:
			a.Region = RegionOther
		}
		for i := 0; i < size; i++ {
			a.Prefixes = append(a.Prefixes, PrefixInfo{Prefix: allocPrefix(), ASN: a.ASN})
		}
		ases = append(ases, a)
		return a
	}

	// Eyeball ASes: Zipf-ish sizes so a few giants dominate (the paper's
	// AS4134 holds 9% of all blocklisted addresses).
	nEye := p.scaled(eyeballASes)
	for i := 0; i < nEye; i++ {
		size := 1 + int(6/(rng.Float64()*3+0.25))
		if size > 64 {
			size = 64
		}
		if i == 0 {
			size = 48 + rng.Intn(17) // the giant
		}
		a := mkAS(ASEyeball, size)
		a.BTPop = rng.Float64() < btPopularASFrac
		a.Probes = (a.Region == RegionEU || a.Region == RegionNA) &&
			rng.Float64() < p.ProbeASFrac/0.7 // concentrate in EU/NA
		icmpFiltered := rng.Float64() < 0.15 // whole-AS ICMP policy
		for j := range a.Prefixes {
			pi := &a.Prefixes[j]
			pi.ICMPFiltered = icmpFiltered
			switch r := rng.Float64(); {
			case r < p.StaticFrac:
				pi.Kind = KindStatic
			case r < p.StaticFrac+p.DynamicFrac:
				pi.Kind = KindDynamic
				// Lease churn is log-skewed from six hours to several
				// months, so per-probe allocation counts form the smooth
				// heavy-tailed curve of Fig 2 rather than discrete bands;
				// the 1.5 exponent weights daily-or-faster pools to
				// roughly a third of dynamic space.
				maxLease := float64(slowLeaseDays) * 24 * 5
				u := math.Pow(rng.Float64(), 1.5)
				pi.MeanLeaseHours = int(6 * math.Pow(maxLease/6, u))
				if pi.MeanLeaseHours < 6 {
					pi.MeanLeaseHours = 6
				}
			case r < p.StaticFrac+p.DynamicFrac+p.CGNFrac:
				pi.Kind = KindCGN
			default:
				pi.Kind = KindUnused
			}
		}
	}
	// Hosting ASes: server space.
	for i := 0; i < p.scaled(hostingASes); i++ {
		size := 2 + rng.Intn(12)
		a := mkAS(ASHosting, size)
		for j := range a.Prefixes {
			a.Prefixes[j].Kind = KindServer
			a.Prefixes[j].ICMPFiltered = rng.Float64() < 0.1
		}
	}
	// Stub ASes: one small static prefix each.
	for i := 0; i < p.scaled(stubASes); i++ {
		a := mkAS(ASStub, 1)
		a.Prefixes[0].Kind = KindStatic
	}
	return ases
}
