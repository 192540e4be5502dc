// Package blgen generates the synthetic Internet the study runs against: an
// AS topology with static, dynamic (DHCP-pool) and carrier-grade-NAT address
// space, a BitTorrent user population, RIPE Atlas probe deployments,
// malicious actors whose abuse drives 151 synthetic blocklist feeds over the
// paper's 83-day measurement windows, and full ground truth for
// precision/recall evaluation.
//
// Everything is derived deterministically from one seed. The default
// parameters produce a world roughly 1/1000 the scale of the measurements in
// the paper, calibrated so the *shapes* of every figure hold (see
// EXPERIMENTS.md for paper-vs-measured numbers).
package blgen

import (
	"time"

	"github.com/reuseblock/reuseblock/internal/blocklist"
)

// Params configures world generation. The zero value is unusable; start
// from DefaultParams.
type Params struct {
	Seed int64
	// Scale multiplies every population count; 1 is the default bench
	// world, tests use much smaller values.
	Scale float64

	// Topology.
	EyeballASes int // consumer ISPs: mixed static/dynamic/CGN space
	HostingASes int // datacenters: server space, no BitTorrent
	StubASes    int // tiny enterprise ASes

	// Prefix-kind mix inside eyeball ASes (fractions summing to <= 1;
	// the remainder is unused dark space).
	StaticFrac  float64
	DynamicFrac float64
	CGNFrac     float64

	// Address usage.
	StaticHostsPerPrefix int     // used addresses per static /24
	DynamicOccupancy     float64 // fraction of a pool leased at any time
	GatewaysPerCGNPrefix int     // NAT gateway addresses per CGN /24

	// BitTorrent population.
	BTPopularASFrac float64 // fraction of eyeball ASes where BT is popular
	BTStaticFrac    float64 // BT adoption among static hosts (popular ASes)
	BTDynamicFrac   float64 // BT adoption among dynamic users
	// NAT gateway BT user count distribution: probability of zero, one,
	// or 2+ users; the 2+ tail shape is fixed (Fig 8 calibration).
	NATZeroBTFrac float64
	NATOneBTFrac  float64

	// RIPE Atlas deployment.
	ProbeASFrac   float64 // fraction of eyeball ASes hosting probes
	ProbesPerAS   int     // probes per covered AS
	MoverFrac     float64 // probes that relocate across ASes
	RIPEMonths    int     // observation length (paper: 16)
	SlowLeaseDays int     // mean lease of slow-churn pools, days

	// Abuse model.
	StaticCompromiseFrac  float64 // static hosts compromised during study
	BTCompromiseBoost     float64 // multiplier for BT hosts ([31])
	ServerCompromiseFrac  float64 // hosting servers running abuse
	DynamicUsersPerPrefix float64 // compromised users per dynamic /24
	NATUserCompromiseFrac float64 // compromised internal users per NAT user
	ShortCampaignFrac     float64 // one-to-two-day campaigns (scanners)
	MeanCampaignDays      float64 // mean of the long-campaign exponential
	// NAT campaigns are bimodal (Fig 7): many brief bursts from individual
	// users plus a long tail of persistently infected shared machines.
	NATShortCampaignFrac float64
	NATMeanCampaignDays  float64
	// NATRestrictedFrac is the share of gateways with address-restricted
	// filtering (invisible to the crawler's unsolicited pings).
	NATRestrictedFrac float64

	// Feed observation model. Every feed has a vantage: the set of ASes
	// whose traffic its sensors see. The paper's big community feeds
	// (Stopforumspam, Nixspam, ...) see globally; small feeds see a
	// handful of ASes — which is why 40–47% of lists carry no reused
	// addresses at all (Figs 5–6).
	TopFeedDetectP  float64 // per-campaign detection probability, global feeds
	BaseFeedDetectP float64 // mean detection probability, small feeds
	// Delist lag distribution: P(1 day), P(2 days); the tail is geometric.
	DelistLag1P float64
	DelistLag2P float64

	// Measurement windows (default: the paper's 83 days).
	Days []time.Time

	// Registry is the feed registry (default: blocklist.StandardRegistry).
	Registry *blocklist.Registry

	// Workers bounds the parallelism of feed generation. Each maintainer
	// feed plays the campaign population against its own sub-seeded RNG
	// stream, so the generated world is bit-for-bit identical for any
	// value: <= 0 means GOMAXPROCS, 1 is the sequential path. Workers is
	// execution policy, not part of the world's identity.
	Workers int
}

// DefaultParams returns the calibrated default-scale (Scale 1) world.
func DefaultParams(seed int64) Params {
	return Params{
		Seed:  seed,
		Scale: 1,

		EyeballASes: 220,
		HostingASes: 50,
		StubASes:    30,

		StaticFrac:  0.55,
		DynamicFrac: 0.30,
		CGNFrac:     0.13,

		StaticHostsPerPrefix: 96,
		DynamicOccupancy:     0.6,
		GatewaysPerCGNPrefix: 56,

		BTPopularASFrac: 0.35,
		BTStaticFrac:    0.10,
		BTDynamicFrac:   0.07,
		NATZeroBTFrac:   0.46,
		NATOneBTFrac:    0.12,

		ProbeASFrac:   0.20,
		ProbesPerAS:   10,
		MoverFrac:     0.13,
		RIPEMonths:    16,
		SlowLeaseDays: 30,

		StaticCompromiseFrac:  0.035,
		BTCompromiseBoost:     3.0,
		ServerCompromiseFrac:  0.06,
		DynamicUsersPerPrefix: 1.0,
		NATUserCompromiseFrac: 0.13,
		ShortCampaignFrac:     0.15,
		MeanCampaignDays:      18,
		NATShortCampaignFrac:  0.82,
		NATMeanCampaignDays:   38,
		NATRestrictedFrac:     0.10,

		TopFeedDetectP:  0.75,
		BaseFeedDetectP: 0.30,
		DelistLag1P:     0.62,
		DelistLag2P:     0.22,

		Days: blocklist.MeasurementDays(),
	}
}

// TestParams returns a tiny world for unit tests (< 100 ms to generate).
func TestParams(seed int64) Params {
	p := DefaultParams(seed)
	p.Scale = 0.05
	return p
}

func (p *Params) scaled(n int) int {
	v := int(float64(n) * p.Scale)
	if v < 1 {
		v = 1
	}
	return v
}
