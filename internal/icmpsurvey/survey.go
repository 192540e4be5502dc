// Package icmpsurvey reimplements the comparison baseline of Cai &
// Heidemann, "Understanding block-level address usage in the visible
// internet" (SIGCOMM 2010), which the paper evaluates against in Fig 6: an
// ICMP ECHO survey of sampled /24 blocks that derives per-address
// availability (A), volatility (V) and median up-time (U) metrics, then
// classifies blocks as dynamically allocated with an ad-hoc threshold rule.
//
// The survey operates against a Responder — resolved once per block into a
// function answering "would this address reply to a ping at this instant,
// and until when?" — so it can run over the synthetic world without
// flooding the event-driven network simulator. The baseline's documented
// weaknesses are modelled by the world, not hidden: middleboxes answer for
// dead hosts (inflating A) and some networks filter ICMP entirely
// (deflating coverage).
package icmpsurvey

import (
	"slices"
	"sort"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/netsim"
	"github.com/reuseblock/reuseblock/internal/obs"
	"github.com/reuseblock/reuseblock/internal/parallel"
)

// Classification thresholds, tuned to mimic the published behaviour.
const (
	// maxMedianUptime: a block whose responsive addresses have a median
	// up-time at or below this is a dynamic candidate.
	maxMedianUptime = 24 * time.Hour
	// minResponsive is the minimum number of ever-responsive addresses a
	// block needs before it is classified at all.
	minResponsive = 8
	// maxAvailability: dynamic candidates must also have mean
	// availability at or below this (stable servers have A ≈ 1).
	maxAvailability = 0.95
)

// Responder answers whether an address would reply to an ICMP ECHO at a
// given instant. The survey asks it once per block: Block resolves
// everything the answers share (for the synthetic world, the /24's
// allocation policy) and returns the per-address answer. The returned
// function is only asked about addresses inside block. Besides the answer
// it returns until, the earliest instant the answer may change: the answer
// holds for every instant in [at, until), so the survey asks again only
// once a probe falls at or after until. A zero until means the answer never
// changes. A promise may be early — the survey then merely asks again — but
// never late.
type Responder interface {
	Block(block iputil.Prefix) func(addr iputil.Addr, at time.Time) (up bool, until time.Time)
}

// ResponderFunc adapts a per-address function to the Responder interface;
// it has nothing to resolve per block, and it promises only the instant it
// was asked about, so the survey asks it for every probe.
type ResponderFunc func(addr iputil.Addr, at time.Time) bool

// Block implements Responder.
func (f ResponderFunc) Block(iputil.Prefix) func(addr iputil.Addr, at time.Time) (bool, time.Time) {
	return func(addr iputil.Addr, at time.Time) (bool, time.Time) { return f(addr, at), at.Add(1) }
}

// Config tunes the survey.
type Config struct {
	// Blocks are the sampled /24 blocks (Cai et al. sample 1% of the
	// responsive address space). Each is resolved through
	// Responder.Block once, then probed address by address.
	Blocks []iputil.Prefix
	// Start and Duration bound the survey window.
	Start    time.Time
	Duration time.Duration
	// Interval is the probe period per address (the original survey
	// probes each address every 11 minutes; coarser is fine at scale).
	Interval time.Duration

	// ProbeLoss is the per-transmission probability that an ECHO or its
	// reply is lost in transit, independent of whether the address would
	// answer. Zero (the default) keeps the survey loss-free and consumes
	// no randomness, so existing outputs are unchanged.
	ProbeLoss float64
	// Retransmits is how many extra transmissions a silent address gets
	// per round before it is scored unresponsive; a real prober retries
	// whether the silence was loss or a genuinely dead host. Only
	// meaningful with ProbeLoss > 0.
	Retransmits int
	// Seed drives probe-loss randomness. Every (address, round) draws
	// from its own counter-based stream keyed by Seed, so the survey stays
	// bit-for-bit identical for any worker count and probe order.
	Seed int64

	// Workers bounds how many blocks are surveyed concurrently. Blocks
	// are independent — the Responder's Block, and the functions it
	// returns, must take concurrent calls, which holds for the pure world
	// responder — and per-block results merge in block order, so the
	// output is identical for any value. <= 0 means GOMAXPROCS; 1 surveys
	// sequentially.
	Workers int

	// Obs, when non-nil, receives the survey's counters (probes,
	// retransmissions, blocks surveyed/dynamic) and the per-block
	// responsive-address histogram after the merge. Everything recorded is
	// a deterministic function of the config, so snapshots are
	// worker-invariant.
	Obs *obs.Registry
}

func (c *Config) applyDefaults() {
	if c.Interval <= 0 {
		c.Interval = time.Hour
	}
}

// Metrics are the per-address A/V/U statistics of Cai et al.
type Metrics struct {
	Probes  int
	Replies int
	// Transitions counts up->down and down->up flips.
	Transitions int
	// MedianUptime is the median length of consecutive responsive runs.
	MedianUptime time.Duration
	// A is availability: Replies/Probes.
	A float64
	// V is volatility: Transitions normalised by the maximum possible.
	V float64
}

// BlockSummary aggregates one /24 block.
type BlockSummary struct {
	Block      iputil.Prefix
	Responsive int // addresses that replied at least once
	// MeanA averages availability over responsive addresses.
	MeanA float64
	// MedianUptime is the median of responsive addresses' median uptimes.
	MedianUptime time.Duration
	Dynamic      bool
}

// Result is the survey output.
type Result struct {
	PerAddr map[iputil.Addr]*Metrics
	Blocks  []BlockSummary
	// DynamicBlocks are the blocks classified as dynamically allocated —
	// the granularity at which this baseline can speak.
	DynamicBlocks *iputil.PrefixSet
	// ProbesSent counts ECHO requests issued.
	ProbesSent int64
	// Retransmissions counts the extra transmissions spent on silent
	// addresses (always zero when ProbeLoss is zero).
	Retransmissions int64
}

// blockResult is one block's complete survey output, self-contained so
// blocks can be surveyed concurrently and merged in block order.
type blockResult struct {
	summary BlockSummary
	// addrs holds the block's ever-responsive addresses in address order,
	// in one backing array that Result.PerAddr's pointers point into.
	addrs           []addrMetrics
	probesSent      int64
	retransmissions int64
}

// addrMetrics is one ever-responsive address and its metrics.
type addrMetrics struct {
	addr iputil.Addr
	m    Metrics
}

// Run executes the survey. Blocks are sharded across cfg.Workers; each
// block's probes and metrics depend only on (block, cfg, Responder), and
// per-block outputs merge in block order, so the result does not depend on
// the worker count.
func Run(r Responder, cfg Config) *Result {
	cfg.applyDefaults()
	steps := int(cfg.Duration / cfg.Interval)
	if steps < 1 {
		steps = 1
	}
	parts := parallel.Map(cfg.Workers, len(cfg.Blocks), func(i int) blockResult {
		return surveyBlock(r, cfg.Blocks[i], cfg, steps)
	})
	responsive := 0
	for _, part := range parts {
		responsive += len(part.addrs)
	}
	res := &Result{
		PerAddr:       make(map[iputil.Addr]*Metrics, responsive),
		DynamicBlocks: iputil.NewPrefixSet(),
	}
	for _, part := range parts {
		res.Blocks = append(res.Blocks, part.summary)
		if part.summary.Dynamic {
			res.DynamicBlocks.Add(part.summary.Block)
		}
		for i := range part.addrs {
			res.PerAddr[part.addrs[i].addr] = &part.addrs[i].m
		}
		res.ProbesSent += part.probesSent
		res.Retransmissions += part.retransmissions
	}
	sort.Slice(res.Blocks, func(i, j int) bool {
		return res.Blocks[i].Block.Base() < res.Blocks[j].Block.Base()
	})
	recordObs(cfg.Obs, res)
	return res
}

// recordObs pushes the merged survey outcome into the registry. Recording
// happens after the block merge — never inside the parallel fan-out — so the
// values are the same deterministic totals the Result itself carries.
func recordObs(reg *obs.Registry, res *Result) {
	if reg == nil {
		return
	}
	reg.Counter("icmp_probes_sent_total").Add(res.ProbesSent)
	reg.Counter("icmp_retransmissions_total").Add(res.Retransmissions)
	reg.Counter("icmp_blocks_surveyed_total").Add(int64(len(res.Blocks)))
	reg.Counter("icmp_blocks_dynamic_total").Add(int64(res.DynamicBlocks.Len()))
	h := reg.Histogram("icmp_block_responsive_addrs", []float64{0, 8, 16, 32, 64, 128})
	for _, b := range res.Blocks {
		h.Observe(float64(b.Responsive))
	}
}

// surveyBlock probes every address of block at each of the survey's steps,
// address by address. Each answer comes with the responder's promise of
// when it may next change, so a run of identical answers is asked for once
// and accounted in O(1): the cost follows how often an address's answer
// changes, not how many probes it accounts for.
func surveyBlock(r Responder, block iputil.Prefix, cfg Config, steps int) blockResult {
	var out blockResult
	responds := r.Block(block)
	summary := BlockSummary{Block: block}
	var sumA float64
	var medUptimes []time.Duration
	var runs []int
	// A /24's responsive addresses collect on the stack and leave in one
	// exact-size copy.
	var buf [256]addrMetrics
	addrs := buf[:0]
	for i := 0; i < block.Size(); i++ {
		addr := block.Nth(i)
		st := addrState{runs: runs[:0]}
		for s := 0; s < steps; {
			up, until := responds(addr, cfg.Start.Add(time.Duration(s)*cfg.Interval))
			end := cfg.runEnd(s, steps, until)
			switch {
			case cfg.ProbeLoss <= 0:
				out.probesSent += int64(end - s)
				st.record(up, s, end-s)
			case !up:
				// A silent address is retried too — the prober cannot
				// tell loss from death.
				out.probesSent += int64(end-s) * int64(1+cfg.Retransmits)
				out.retransmissions += int64(end-s) * int64(cfg.Retransmits)
				st.record(false, s, end-s)
			default:
				// The first transmission may be lost; bounded retransmits
				// recover most rounds. Every round draws on its own.
				for k := s; k < end; k++ {
					got, sent := cfg.echo(addr, k)
					out.probesSent += int64(sent)
					out.retransmissions += int64(sent - 1)
					st.record(got, k, 1)
				}
			}
			s = end
		}
		if st.m.Replies == 0 {
			continue
		}
		if st.runLen > 0 {
			st.runs = append(st.runs, st.runLen)
		}
		runs = st.runs // the next address reuses the grown buffer
		st.m.A = float64(st.m.Replies) / float64(st.m.Probes)
		if st.m.Probes > 1 {
			st.m.V = float64(st.m.Transitions) / float64(st.m.Probes-1)
		}
		sort.Ints(runs)
		st.m.MedianUptime = time.Duration(runs[len(runs)/2]) * cfg.Interval
		addrs = append(addrs, addrMetrics{addr, st.m})
		summary.Responsive++
		sumA += st.m.A
		medUptimes = append(medUptimes, st.m.MedianUptime)
	}
	if summary.Responsive > 0 {
		summary.MeanA = sumA / float64(summary.Responsive)
		sort.Slice(medUptimes, func(i, j int) bool { return medUptimes[i] < medUptimes[j] })
		summary.MedianUptime = medUptimes[len(medUptimes)/2]
	}
	summary.Dynamic = summary.Responsive >= minResponsive &&
		summary.MedianUptime <= maxMedianUptime &&
		summary.MeanA <= maxAvailability
	out.summary = summary
	if len(addrs) > 0 {
		out.addrs = slices.Clone(addrs)
	}
	return out
}

// addrState is one address's running A/V/U accounting.
type addrState struct {
	m      Metrics
	up     bool
	runLen int
	runs   []int // lengths of the finished responsive runs
}

// record accounts n consecutive probes from step s on, all with the same
// answer: exactly what n single-probe updates would do, in O(1).
func (st *addrState) record(up bool, s, n int) {
	st.m.Probes += n
	if !up {
		if st.up {
			st.m.Transitions++
			st.runs = append(st.runs, st.runLen)
			st.runLen = 0
		}
		st.up = false
		return
	}
	st.m.Replies += n
	if !st.up && s > 0 {
		st.m.Transitions++
	}
	st.up = true
	st.runLen += n
}

// runEnd returns the first step at or after until — the instant an answer
// given at step s may change — clamped to [s+1, steps]. A zero until never
// changes.
func (c *Config) runEnd(s, steps int, until time.Time) int {
	if until.IsZero() {
		return steps
	}
	off := until.Sub(c.Start)
	if off >= time.Duration(steps)*c.Interval {
		return steps
	}
	return max(int((off+c.Interval-1)/c.Interval), s+1)
}

// echo plays one round's transmissions to an address that would answer at
// step: the first ECHO plus up to Retransmits retries while silence lasts.
// It returns whether a reply got through and how many ECHOs were sent. The
// draws come from a counter-based stream keyed by (Seed, addr, step), the
// scheme netsim.Fate gives every datagram, so they do not depend on the
// order rounds are played in or on which worker plays them.
func (c *Config) echo(addr iputil.Addr, step int) (got bool, sent int) {
	fate := netsim.NewFate(c.Seed, netsim.Endpoint{Addr: addr}, netsim.Endpoint{}, uint64(step))
	for sent = 1; ; sent++ {
		if fate.Float64() >= c.ProbeLoss {
			return true, sent
		}
		if sent > c.Retransmits {
			return false, sent
		}
	}
}
