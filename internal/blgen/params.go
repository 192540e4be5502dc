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

// World-model constants: the calibrated quantities no caller varies.
const (
	// Topology.
	eyeballASes = 220 // consumer ISPs: mixed static/dynamic/CGN space
	hostingASes = 50  // datacenters: server space, no BitTorrent
	stubASes    = 30  // tiny enterprise ASes

	// Address usage.
	staticHostsPerPrefix = 96  // used addresses per static /24
	dynamicOccupancy     = 0.6 // fraction of a pool leased at any time

	// BitTorrent population.
	btPopularASFrac = 0.35 // fraction of eyeball ASes where BT is popular
	btStaticFrac    = 0.10 // BT adoption among static hosts (popular ASes)
	btDynamicFrac   = 0.07 // BT adoption among dynamic users

	// RIPE Atlas deployment.
	ripeMonths    = 16 // observation length (paper: 16)
	slowLeaseDays = 30 // mean lease of slow-churn pools, days

	// Abuse model.
	staticCompromiseFrac  = 0.035 // static hosts compromised during study
	btCompromiseBoost     = 3.0   // multiplier for BT hosts ([31])
	serverCompromiseFrac  = 0.06  // hosting servers running abuse
	dynamicUsersPerPrefix = 1.0   // compromised users per dynamic /24
	natUserCompromiseFrac = 0.13  // compromised internal users per NAT user
	shortCampaignFrac     = 0.15  // one-to-two-day campaigns (scanners)
	meanCampaignDays      = 18    // mean of the long-campaign exponential
	// NAT campaigns are bimodal (Fig 7): many brief bursts from individual
	// users plus a long tail of persistently infected shared machines.
	natShortCampaignFrac = 0.82
	natMeanCampaignDays  = 38
	// natRestrictedFrac is the share of gateways with address-restricted
	// filtering (invisible to the crawler's unsolicited pings).
	natRestrictedFrac = 0.10

	// delistLag2P is P(2 days) of the delist lag distribution (Params'
	// DelistLag1P is P(1 day)); the tail is geometric.
	delistLag2P = 0.22
)

// Params configures world generation: the dimensions the property sweep
// varies. The zero value is unusable; start from DefaultParams. Every world
// spans the paper's 83 measurement days (blocklist.MeasurementDays) and
// observes blocklist.StandardRegistry's feeds.
type Params struct {
	Seed int64
	// Scale multiplies every population count; 1 is the default bench
	// world, tests use much smaller values.
	Scale float64

	// Prefix-kind mix inside eyeball ASes (fractions summing to <= 1;
	// the remainder is unused dark space).
	StaticFrac  float64
	DynamicFrac float64
	CGNFrac     float64

	// Address usage.
	GatewaysPerCGNPrefix int // NAT gateway addresses per CGN /24

	// NAT gateway BT user count distribution: probability of zero, one,
	// or 2+ users; the 2+ tail shape is fixed (Fig 8 calibration).
	NATZeroBTFrac float64
	NATOneBTFrac  float64

	// RIPE Atlas deployment.
	ProbeASFrac float64 // fraction of eyeball ASes hosting probes
	ProbesPerAS int     // probes per covered AS
	MoverFrac   float64 // probes that relocate across ASes

	// Feed observation model. Every feed has a vantage: the set of ASes
	// whose traffic its sensors see. The paper's big community feeds
	// (Stopforumspam, Nixspam, ...) see globally; small feeds see a
	// handful of ASes — which is why 40–47% of lists carry no reused
	// addresses at all (Figs 5–6).
	TopFeedDetectP  float64 // per-campaign detection probability, global feeds
	BaseFeedDetectP float64 // mean detection probability, small feeds
	// DelistLag1P is P(1 day) of the delist lag distribution.
	DelistLag1P float64

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

		StaticFrac:  0.55,
		DynamicFrac: 0.30,
		CGNFrac:     0.13,

		GatewaysPerCGNPrefix: 56,

		NATZeroBTFrac: 0.46,
		NATOneBTFrac:  0.12,

		ProbeASFrac: 0.20,
		ProbesPerAS: 10,
		MoverFrac:   0.13,

		TopFeedDetectP:  0.75,
		BaseFeedDetectP: 0.30,
		DelistLag1P:     0.62,
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
