// Package shed is the serving layer's overload-resilience mechanism:
// admission control, adaptive load shedding, per-client rate limiting, and
// the degraded-mode state machine blserve runs when demand outstrips
// capacity or a dataset reload fails.
//
// The paper's central harm — one NATed address ban collaterally blocking
// thousands of users (§5) — gets worse if the reuse-lookup service itself
// falls over under load and enforcement points fall back to blind blocking.
// So the service must degrade deliberately, not collapse: requests past
// capacity are rejected quickly with a well-formed JSON error and a
// Retry-After, never queued without bound or answered with a stalled
// connection.
//
// Three cooperating pieces:
//
//   - Admission gates (one per endpoint class): a bounded concurrency limit
//     with a bounded, deadline-aware wait queue. Shedding is CoDel-style:
//     the measured queue sojourn time is compared against a target, and when
//     it stays above the target for a full interval the gate flips into a
//     dropping state that sheds the *newest* arrivals immediately — standing
//     queues drain instead of growing, and goodput stays pinned near
//     capacity instead of collapsing under retry storms.
//
//   - A per-client token-bucket limiter keyed by client IP (optionally
//     aggregated to a prefix, and optionally trusting X-Forwarded-For behind
//     a load balancer), held in an LRU so a scan of spoofed clients cannot
//     exhaust memory. CGNAT deployments mean one hot client IP can be
//     thousands of legitimate users, so limits are per-key budgets with
//     bursts, not bans.
//
//   - A mode state machine: sustained overload (any gate dropping, or
//     continuously shedding or queueing past target) or a failed dataset
//     reload moves the controller to ModeDegraded; calm sustained for a
//     recovery window moves it back.
//     Servers surface the mode at /readyz so load balancers drain a
//     degraded instance instead of timing out on it.
//
// Everything is mechanism only — the HTTP glue (error bodies, Retry-After
// headers, degraded response selection) lives with the API handlers in
// reuseapi, which is also where the "off by default" contract is enforced:
// a nil controller leaves every serving path byte-identical to the
// unguarded build.
package shed

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reuseblock/reuseblock/internal/obs"
)

// Class partitions endpoints by cost so a flood of expensive requests
// cannot starve the cheap hot path: admission is per-class.
type Class int

const (
	// ClassCheap is the zero-alloc single-check path (GET /v1/check) and
	// the tiny precomputed /v1/stats body.
	ClassCheap Class = iota
	// ClassHeavy covers full-body endpoints (/v1/list, /v1/prefixes) and
	// batch POST checks, whose unit of work is thousands of lookups.
	ClassHeavy

	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassCheap:
		return "cheap"
	case ClassHeavy:
		return "heavy"
	default:
		return "unknown"
	}
}

// Outcome is one admission decision.
type Outcome int

const (
	// Admitted means the request got a concurrency slot (possibly after a
	// bounded wait).
	Admitted Outcome = iota
	// ShedQueueFull means the wait queue was at capacity on arrival.
	ShedQueueFull
	// ShedOverloaded means the gate was in its CoDel dropping state —
	// queue sojourn stayed above target for a full interval — so the
	// newest arrival was shed without queueing.
	ShedOverloaded
	// ShedWaitTimeout means the request queued but no slot freed within
	// the deadline (the gate's max wait or the request context).
	ShedWaitTimeout
)

func (o Outcome) String() string {
	switch o {
	case Admitted:
		return "admitted"
	case ShedQueueFull:
		return "queue_full"
	case ShedOverloaded:
		return "overloaded"
	case ShedWaitTimeout:
		return "wait_timeout"
	default:
		return "unknown"
	}
}

// Mode is the controller's serving mode.
type Mode int32

const (
	// ModeNormal serves every representation.
	ModeNormal Mode = iota
	// ModeDegraded serves only the cheapest representation of each
	// endpoint (precomputed gzip bodies, clamped batches) and reports
	// not-ready at /readyz.
	ModeDegraded
)

func (m Mode) String() string {
	if m == ModeDegraded {
		return "degraded"
	}
	return "normal"
}

// Config tunes the controller. Zero values take the documented defaults.
type Config struct {
	// CheapConcurrency and HeavyConcurrency bound in-flight requests per
	// class. Defaults: 256 and 32.
	CheapConcurrency int
	HeavyConcurrency int
	// QueueLimit bounds waiters per class; arrivals past it are shed
	// immediately. Default 128.
	QueueLimit int
	// Target is the CoDel queue-sojourn target: admitted requests should
	// not have waited longer than this. Default 5ms.
	Target time.Duration
	// Interval is how long sojourn must stay above Target before the gate
	// starts dropping new arrivals. Default 100ms.
	Interval time.Duration
	// MaxWait is the hard cap on any single request's queue wait; a waiter
	// past it is shed with a deadline-style rejection. Default 50ms.
	MaxWait time.Duration

	// RatePerClient is the per-client token refill rate in requests per
	// second; 0 disables rate limiting. Burst is the bucket size (default
	// 2× the rate, minimum 1).
	RatePerClient float64
	Burst         int
	// ClientPrefixBits aggregates client keys to an address prefix
	// (24 groups a /24 — one CGNAT pool, one budget). Default 32 (exact).
	ClientPrefixBits int
	// TrustForwarded keys clients by the first X-Forwarded-For entry when
	// present — only safe behind a load balancer that sets it.
	TrustForwarded bool
	// MaxClients bounds the limiter LRU. Default 4096.
	MaxClients int

	// DegradeAfter is how long the overload condition must persist before
	// the mode flips to degraded; a failed reload degrades immediately.
	// Default 1s.
	DegradeAfter time.Duration
	// RecoverAfter is how long calm must persist before a degraded
	// controller recovers. Default 2s.
	RecoverAfter time.Duration
	// RetryAfter is the delay advertised on shed and rate-limited
	// responses. Default 1s.
	RetryAfter time.Duration
	// DegradedMaxBatchIPs clamps batch checks while degraded. Default 256.
	DegradedMaxBatchIPs int

	// Dataset labels this controller's metrics with the dataset it guards
	// (a server runs one controller per dataset, so /metrics keeps them
	// apart); empty leaves the label off.
	Dataset string
}

func (c Config) withDefaults() Config {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	defD := func(v *time.Duration, d time.Duration) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&c.CheapConcurrency, 256)
	def(&c.HeavyConcurrency, 32)
	def(&c.QueueLimit, 128)
	defD(&c.Target, 5*time.Millisecond)
	defD(&c.Interval, 100*time.Millisecond)
	defD(&c.MaxWait, 50*time.Millisecond)
	if c.RatePerClient > 0 && c.Burst <= 0 {
		c.Burst = int(math.Max(1, 2*c.RatePerClient))
	}
	if c.ClientPrefixBits <= 0 || c.ClientPrefixBits > 32 {
		c.ClientPrefixBits = 32
	}
	def(&c.MaxClients, 4096)
	defD(&c.DegradeAfter, time.Second)
	defD(&c.RecoverAfter, 2*time.Second)
	defD(&c.RetryAfter, time.Second)
	def(&c.DegradedMaxBatchIPs, 256)
	return c
}

// Controller is the overload-resilience state shared by a server's
// handlers. All methods are safe for concurrent use.
type Controller struct {
	cfg   Config
	gates [numClasses]*gate
	lim   *limiter // nil when rate limiting is off
	now   func() time.Time

	// Mode state machine (mu guards the since stamps).
	mode         atomic.Int32
	reloadFailed atomic.Bool
	mu           sync.Mutex
	overSince    time.Time
	calmSince    time.Time

	// Totals for the manifest status block.
	admitted    atomic.Int64
	queued      atomic.Int64
	shed        atomic.Int64
	rateLimited atomic.Int64
	transitions atomic.Int64

	// Metric handles, resolved once (nil-safe when reg is nil).
	mOutcome    [numClasses][4]*obs.Counter
	mRateLim    *obs.Counter
	hSojourn    [numClasses]*obs.Histogram
	gDegraded   *obs.Gauge
	mTransition *obs.Counter
}

// sojournBuckets are the queue-wait histogram bounds, in seconds.
var sojournBuckets = []float64{1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.5}

// New builds a controller. reg may be nil (metrics become no-ops); every
// shed metric lives in the wall namespace — live traffic is not part of the
// deterministic study surface.
func New(cfg Config, reg *obs.Registry) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{cfg: cfg, now: time.Now}
	// A per-dataset controller prefixes every metric's labels with its
	// dataset so the datasets of one server stay separable in /metrics.
	name := func(base string, kv ...string) string {
		if cfg.Dataset != "" {
			kv = append([]string{"dataset", cfg.Dataset}, kv...)
		}
		return obs.Name(base, kv...)
	}
	conc := [numClasses]int{ClassCheap: cfg.CheapConcurrency, ClassHeavy: cfg.HeavyConcurrency}
	for cl := Class(0); cl < numClasses; cl++ {
		c.gates[cl] = newGate(conc[cl], cfg.QueueLimit, cfg.Target, cfg.Interval, cfg.MaxWait)
		for _, o := range []Outcome{Admitted, ShedQueueFull, ShedOverloaded, ShedWaitTimeout} {
			c.mOutcome[cl][o] = reg.Counter(name(obs.WallPrefix+"shed_requests_total",
				"class", cl.String(), "outcome", o.String()))
		}
		c.hSojourn[cl] = reg.Histogram(name(obs.WallPrefix+"shed_queue_seconds",
			"class", cl.String()), sojournBuckets)
	}
	if cfg.RatePerClient > 0 {
		c.lim = newLimiter(cfg.RatePerClient, float64(cfg.Burst), cfg.MaxClients, c.now)
	}
	c.mRateLim = reg.Counter(name(obs.WallPrefix + "shed_rate_limited_total"))
	c.gDegraded = reg.Gauge(name(obs.WallPrefix + "shed_degraded"))
	c.mTransition = reg.Counter(name(obs.WallPrefix + "shed_mode_transitions_total"))
	return c
}

// Acquire asks the class gate for a concurrency slot, waiting at most the
// configured bound. On Admitted the returned release must be called when
// the request finishes; on every other outcome release is nil and the
// caller must reject the request.
func (c *Controller) Acquire(ctx context.Context, class Class) (release func(), outcome Outcome) {
	g := c.gates[class]
	release, outcome, sojourn := g.acquire(ctx, c.now)
	c.mOutcome[class][outcome].Inc()
	if outcome == Admitted {
		c.admitted.Add(1)
		if sojourn > 0 {
			c.queued.Add(1)
		}
		c.hSojourn[class].Observe(sojourn.Seconds())
	} else {
		c.shed.Add(1)
	}
	c.evaluate()
	return release, outcome
}

// AllowClient answers whether the request's client has token-bucket budget
// left. Always true when rate limiting is disabled.
func (c *Controller) AllowClient(key string) bool {
	if c.lim == nil {
		return true
	}
	if c.lim.allow(key) {
		return true
	}
	c.rateLimited.Add(1)
	c.mRateLim.Inc()
	return false
}

// SetReloadFailed flags (or clears) a failed dataset reload. A failed
// reload degrades the controller immediately — the served snapshot is
// stale, so load balancers should prefer healthy replicas — and clearing
// it starts the normal calm-window recovery.
func (c *Controller) SetReloadFailed(failed bool) {
	c.reloadFailed.Store(failed)
	c.evaluate()
}

// Mode evaluates and returns the current serving mode.
func (c *Controller) Mode() Mode { return c.evaluate() }

// Degraded reports whether the controller is in degraded mode.
func (c *Controller) Degraded() bool { return c.evaluate() == ModeDegraded }

// DegradedMaxBatch is the batch-size clamp applied while degraded.
func (c *Controller) DegradedMaxBatch() int { return c.cfg.DegradedMaxBatchIPs }

// RetryAfterSeconds is the advertised Retry-After delay, in whole seconds
// (minimum 1, as the header requires).
func (c *Controller) RetryAfterSeconds() int {
	s := int(math.Ceil(c.cfg.RetryAfter.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

// evaluate advances the mode state machine from the current overload
// condition. It is called on every admission decision and on every Mode
// probe, so the mode keeps moving (and recovers) even when the only
// traffic left is a load balancer polling /readyz.
func (c *Controller) evaluate() Mode {
	now := c.now()
	over := c.reloadFailed.Load()
	if !over {
		for _, g := range c.gates {
			if g.overloadedNow(now) {
				over = true
				break
			}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := Mode(c.mode.Load())
	if over {
		c.calmSince = time.Time{}
		if c.overSince.IsZero() {
			c.overSince = now
		}
		if cur == ModeNormal && (c.reloadFailed.Load() || now.Sub(c.overSince) >= c.cfg.DegradeAfter) {
			c.setMode(ModeDegraded)
			cur = ModeDegraded
		}
	} else {
		c.overSince = time.Time{}
		if cur == ModeDegraded {
			if c.calmSince.IsZero() {
				c.calmSince = now
			}
			if now.Sub(c.calmSince) >= c.cfg.RecoverAfter {
				c.setMode(ModeNormal)
				cur = ModeNormal
			}
		}
	}
	return cur
}

// setMode flips the mode (caller holds mu) and records the transition.
func (c *Controller) setMode(m Mode) {
	c.mode.Store(int32(m))
	c.transitions.Add(1)
	c.mTransition.Inc()
	if m == ModeDegraded {
		c.gDegraded.Set(1)
	} else {
		c.gDegraded.Set(0)
	}
}

// Status snapshots the controller for the run manifest.
func (c *Controller) Status() *obs.OverloadStatus {
	mode := c.evaluate()
	return &obs.OverloadStatus{
		Enabled:         true,
		Mode:            mode.String(),
		Admitted:        c.admitted.Load(),
		Queued:          c.queued.Load(),
		Shed:            c.shed.Load(),
		RateLimited:     c.rateLimited.Load(),
		ModeTransitions: c.transitions.Load(),
		ReloadFailed:    c.reloadFailed.Load(),
	}
}

// gate is one endpoint class's admission control: a slot semaphore, a
// bounded wait queue, and the CoDel-style sojourn controller.
type gate struct {
	slots      chan struct{}
	queueLimit int64
	target     time.Duration
	interval   time.Duration
	maxWait    time.Duration

	waiters atomic.Int64
	// aboveSince is the unix-nano stamp of when sojourn first exceeded the
	// target (0 = at or below target). When it stays above for a full
	// interval, dropping latches and new arrivals are shed.
	aboveSince atomic.Int64
	dropping   atomic.Bool
	// lastPressure is the unix-nano stamp of the last evidence of queue
	// pressure (an over-target sojourn or a shed arrival); a dropping gate
	// with no recent pressure self-clears — the flood is over.
	lastPressure atomic.Int64
}

func newGate(concurrency, queueLimit int, target, interval, maxWait time.Duration) *gate {
	return &gate{
		slots:      make(chan struct{}, concurrency),
		queueLimit: int64(queueLimit),
		target:     target,
		interval:   interval,
		maxWait:    maxWait,
	}
}

func (g *gate) release() { <-g.slots }

// acquire implements the admission decision; sojourn is how long the
// request waited for its slot (0 on the fast path).
func (g *gate) acquire(ctx context.Context, now func() time.Time) (func(), Outcome, time.Duration) {
	// Fast path: a free slot at arrival means there is no standing queue —
	// the sojourn is zero, which also clears any dropping state.
	select {
	case g.slots <- struct{}{}:
		g.noteSojourn(0, now)
		return g.release, Admitted, 0
	default:
	}
	if g.dropping.Load() {
		// CoDel drop state: shed the newest arrival outright so the
		// standing queue drains instead of growing.
		g.lastPressure.Store(now().UnixNano())
		return nil, ShedOverloaded, 0
	}
	if g.waiters.Add(1) > g.queueLimit {
		g.waiters.Add(-1)
		g.lastPressure.Store(now().UnixNano())
		return nil, ShedQueueFull, 0
	}
	defer g.waiters.Add(-1)
	start := now()
	timer := time.NewTimer(g.maxWait)
	defer timer.Stop()
	select {
	case g.slots <- struct{}{}:
		d := now().Sub(start)
		g.noteSojourn(d, now)
		return g.release, Admitted, d
	case <-timer.C:
		g.noteSojourn(g.maxWait, now)
		return nil, ShedWaitTimeout, g.maxWait
	case <-ctx.Done():
		return nil, ShedWaitTimeout, now().Sub(start)
	}
}

// noteSojourn feeds one sojourn measurement to the CoDel controller: at or
// below target resets it; above target for a full interval latches the
// dropping state.
func (g *gate) noteSojourn(d time.Duration, now func() time.Time) {
	if d <= g.target {
		g.aboveSince.Store(0)
		g.dropping.Store(false)
		return
	}
	n := now().UnixNano()
	g.lastPressure.Store(n)
	since := g.aboveSince.Load()
	if since == 0 {
		g.aboveSince.CompareAndSwap(0, n)
		return
	}
	if time.Duration(n-since) >= g.interval {
		g.dropping.Store(true)
	}
}

// overloadedNow reports whether the gate currently shows overload
// pressure: it is in its CoDel dropping state, or it shed an arrival or
// queued one past target within the last interval. The second clause
// matters when service times are short relative to the interval — the gate
// can reject work continuously without the sojourn ever staying above
// target long enough to latch dropping, and that is still overload. A
// dropping gate that has seen no pressure for two intervals self-clears:
// with no arrivals left to shed, the standing queue is gone.
func (g *gate) overloadedNow(now time.Time) bool {
	last := g.lastPressure.Load()
	idle := now.UnixNano() - last
	if g.dropping.Load() {
		if idle > 2*int64(g.interval) {
			g.dropping.Store(false)
			g.aboveSince.Store(0)
			return false
		}
		return true
	}
	return last != 0 && idle <= int64(g.interval)
}
