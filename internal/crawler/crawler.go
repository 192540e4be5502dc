// Package crawler implements the paper's BitTorrent NAT-detection crawler
// (§3.1). The crawler walks the DHT with get_nodes (KRPC find_node)
// messages, remembers every (IP, port, node_id) it observes, and
// periodically verifies multi-port IPs with bt_ping (KRPC ping) rounds: an
// IP answering on two or more ports with two or more distinct node IDs in
// the same round is simultaneously shared — a NATed reused address — and the
// number of simultaneously responding ports is a lower bound on the users
// behind it.
//
// Operational behaviour follows the paper: messages are issued in discovery
// order, an IP is not recontacted for a cool-down period (20 minutes) after
// a batch of messages, ping rounds run hourly, and crawling can be
// restricted to a scope (the blocklisted address space) to avoid unnecessary
// probing.
package crawler

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"github.com/reuseblock/reuseblock/internal/dht"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/netsim"
	"github.com/reuseblock/reuseblock/internal/obs"
)

// Config tunes the crawler.
type Config struct {
	// ID is the crawler's DHT identity; zero derives one from Seed.
	ID krpc.NodeID
	// Bootstrap endpoints seed discovery (the DHT bootstrap node of §3.1).
	Bootstrap []netsim.Endpoint
	// Scope restricts probing to addresses for which it returns true; nil
	// crawls everything. The paper restricts to blocklisted /24 space.
	Scope func(iputil.Addr) bool
	// Cooldown is the per-IP recontact interval (paper: 20 minutes).
	Cooldown time.Duration
	// PingInterval is the period of bt_ping verification rounds (paper:
	// hourly).
	PingInterval time.Duration
	// PingWindow is how long a round waits before scoring replies.
	PingWindow time.Duration
	// SweepInterval is the period of discovery sweeps re-querying known
	// endpoints for new neighbours.
	SweepInterval time.Duration
	// Tick is the pump granularity; BatchPerTick messages are issued per
	// tick so the crawler is rate-limited as the paper describes.
	Tick         time.Duration
	BatchPerTick int
	// QueryTimeout bounds response waits.
	QueryTimeout time.Duration
	// MaxRetries is how many extra transmissions a query gets after a
	// timeout before it is scored a failure. Retries back off
	// exponentially from RetryBase with deterministic jitter drawn from
	// the crawler RNG. Zero (the default) disables retries entirely: a
	// fault-free crawl issues exactly the same messages and consumes
	// exactly the same RNG draws as before this knob existed.
	MaxRetries int
	// RetryBase is the first retry's backoff; doubling per attempt.
	// Defaults to 1s when MaxRetries > 0.
	RetryBase time.Duration
	// EvictAfter evicts an endpoint from the discovery frontier once this
	// many consecutive queries to it failed (all retries exhausted); any
	// reply — even a late one — resurrects it. Zero disables eviction.
	EvictAfter int
	// Limiter, when non-nil, is the fleet rate-budget hook: before issuing
	// a discovery batch the pump asks it for up to BatchPerTick sends and
	// issues only what is granted. Verification ping rounds are exempt —
	// the simultaneity measurement needs all ports of an IP probed in one
	// window. The limiter must be a deterministic function of the clock it
	// is driven by (fleet.TokenBucket on the simulated clock qualifies), or
	// crawl reproducibility is lost.
	Limiter Limiter
	// MaxInflight bounds outstanding discovery queries: the pump stops
	// issuing when that many transactions await responses — the fleet's
	// bounded in-flight request queue. Zero (the default) is unbounded.
	MaxInflight int
	// MaxPerNode bounds concurrent outstanding queries to a single
	// endpoint; a frontier entry whose node is already at the bound is
	// dropped from the queue like a cooled-down one (the next sweep
	// re-enqueues every known endpoint). Zero is unbounded.
	MaxPerNode int
	// Seed drives the crawler's RNG (lookup targets, transaction IDs).
	Seed int64
	// EventLog, when non-nil, receives one line per message sent and
	// received (the paper's message log); Replay reprocesses such logs
	// into NAT determinations offline.
	EventLog io.Writer
	// Obs, when non-nil, receives the crawl's final counters (queries
	// sent, retries, late replies, evictions, …) when Stop runs. Counts
	// are taken from the per-crawler Stats — deterministic per seed — and
	// added atomically, so multi-vantage sums are worker-invariant.
	Obs *obs.Registry
	// Trace, when non-nil, is the parent span (typically the vantage span)
	// under which the crawler opens one child span per query batch: each
	// ping round and each discovery sweep.
	Trace *obs.Span
}

func (c *Config) applyDefaults() {
	if c.Cooldown <= 0 {
		c.Cooldown = 20 * time.Minute
	}
	if c.PingInterval <= 0 {
		c.PingInterval = time.Hour
	}
	if c.PingWindow <= 0 {
		c.PingWindow = 30 * time.Second
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = time.Hour
	}
	if c.Tick <= 0 {
		c.Tick = time.Second
	}
	if c.BatchPerTick <= 0 {
		c.BatchPerTick = 256
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 5 * time.Second
	}
	if c.MaxRetries > 0 && c.RetryBase <= 0 {
		c.RetryBase = time.Second
	}
}

// Stats mirrors the crawl statistics reported in §4 of the paper.
type Stats struct {
	GetNodesSent     int64
	GetNodesReplies  int64
	PingsSent        int64
	PingReplies      int64
	Timeouts         int64
	Retries          int64 // retransmissions after a query timeout
	LateReplies      int64 // responses that arrived after their query was scored a timeout
	Evicted          int64 // endpoints dropped from the frontier as persistently dead
	UniqueIPs        int   // unique BitTorrent IPs observed
	UniqueNodeIDs    int   // unique node_ids observed
	NATedIPs         int   // IPs confirmed NATed
	MultiPortIPs     int   // IPs that ever showed >1 port
	ScopeSuppressed  int64
	ResponseRate     float64 // replies / (pings + get_nodes)
	SimultaneousMax  int     // largest simultaneous-user lower bound
	PingRoundsRun    int
	SweepsRun        int
	MessagesSent     int64
	MessagesReceived int64
}

// NATObservation describes one confirmed NATed address.
type NATObservation struct {
	Addr iputil.Addr
	// Users is the lower bound on simultaneous users: the maximum number
	// of distinct (port, node_id) pairs that answered one ping round.
	Users int
	// FirstConfirmed is when the first positive round completed.
	FirstConfirmed time.Time
	// PortsSeen is how many distinct ports were ever observed.
	PortsSeen int
}

type portInfo struct {
	firstSeen time.Time
	lastSeen  time.Time
	nodeIDs   map[krpc.NodeID]bool
}

type ipRecord struct {
	addr         iputil.Addr
	ports        map[uint16]*portInfo
	lastContact  time.Time
	natConfirmed bool
	firstConfirm time.Time
	maxUsers     int
	// roundReplies collects (port -> node ID) during the active ping round.
	roundReplies map[uint16]krpc.NodeID
	inRound      bool
}

// Limiter is the crawl-budget hook consulted by the discovery pump; see
// Config.Limiter. fleet.TokenBucket implements it.
type Limiter interface {
	// Take requests up to n message sends at now and returns how many are
	// granted (0..n).
	Take(now time.Time, n int) int
}

// lateWindowMax bounds how many timed-out transactions are remembered for
// late-reply accounting; the oldest are forgotten first.
const lateWindowMax = 4096

// Crawler is the NAT-detection crawler.
type Crawler struct {
	cfg     Config
	sock    netsim.Socket
	clock   dht.Clock
	rng     *rand.Rand
	id      krpc.NodeID
	txSeq   uint64
	tx      *TxManager
	ips     map[iputil.Addr]*ipRecord
	nodeIDs map[krpc.NodeID]bool
	queue   []netsim.Endpoint
	queued  map[netsim.Endpoint]bool
	stats   Stats
	running bool
	stopped bool
	// One handle per recurring timer, replaced each time it re-arms, so a
	// 48 h crawl holds no more handles than a 1 h one.
	bootTimer, tickTimer, sweepTimer, pingTimer, windowTimer dht.Timer
	// nodeBuf backs decoded find_node responses and buf encodes outgoing
	// messages, so neither allocates per datagram.
	nodeBuf []krpc.NodeInfo
	buf     []byte
	// failures counts consecutive dead queries per endpoint; endpoints
	// reaching EvictAfter enter evicted and leave the frontier.
	failures map[netsim.Endpoint]int
	evicted  map[netsim.Endpoint]bool
}

// crawlerTimers is a Crawler as the target of its hot timers, which keeps
// Fire out of Crawler's method set. A timer's argument holds its kind in
// the low timerKindBits bits and, for a per-query timer, the transaction
// ID above them.
type crawlerTimers Crawler

// Typed timer kinds.
const (
	evTick = iota
	evSweep
	evPingRound
	evDeadline   // a query's response deadline
	evRetransmit // a timed-out query's retry backoff

	timerKindBits = 3
)

func (t *crawlerTimers) Fire(arg uint64) {
	c := (*Crawler)(t)
	tx := arg >> timerKindBits
	switch arg & (1<<timerKindBits - 1) {
	case evTick:
		if c.running {
			c.pump()
			c.scheduleTick()
		}
	case evSweep:
		if c.running {
			c.sweep()
			c.scheduleSweep()
		}
	case evPingRound:
		if c.running {
			c.pingRound()
			c.schedulePingRound()
		}
	case evDeadline:
		c.queryTimeout(tx)
	case evRetransmit:
		c.retransmit(tx)
	}
}

// New builds a crawler on the given socket.
func New(sock netsim.Socket, clock dht.Clock, cfg Config) *Crawler {
	cfg.applyDefaults()
	id := cfg.ID
	if id == (krpc.NodeID{}) {
		id = krpc.GenerateNodeID(iputil.Addr(cfg.Seed), uint64(cfg.Seed))
	}
	c := &Crawler{
		cfg:     cfg,
		sock:    sock,
		clock:   clock,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		id:      id,
		tx:      NewTxManager(lateWindowMax),
		ips:     make(map[iputil.Addr]*ipRecord),
		nodeIDs: make(map[krpc.NodeID]bool),
		queued:  make(map[netsim.Endpoint]bool),
		nodeBuf: make([]krpc.NodeInfo, 0, dht.BucketSize),
	}
	if cfg.EvictAfter > 0 {
		c.failures = make(map[netsim.Endpoint]int)
		c.evicted = make(map[netsim.Endpoint]bool)
	}
	sock.SetHandler(c.handle)
	return c
}

// Start begins crawling: bootstrap targets are enqueued, the pump starts,
// and sweep and ping-round timers are armed.
func (c *Crawler) Start() {
	if c.running || c.stopped {
		return
	}
	c.running = true
	// Bootstrap: UDP makes a single contact attempt flaky, so until the
	// first reply arrives the entry points are re-queried every
	// QueryTimeout. After that, sweeps re-enqueue them with everything
	// else.
	var boot func()
	boot = func() {
		if !c.running || c.stats.GetNodesReplies+c.stats.PingReplies > 0 {
			return
		}
		for _, ep := range c.cfg.Bootstrap {
			c.enqueue(ep)
		}
		c.bootTimer = c.clock.After(c.cfg.QueryTimeout, boot)
	}
	c.bootTimer = c.clock.After(0, boot)
	c.scheduleTick()
	c.schedulePingRound()
	c.scheduleSweep()
}

// Stop halts all crawler activity; observations remain queryable.
func (c *Crawler) Stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	c.running = false
	for _, t := range []dht.Timer{c.bootTimer, c.tickTimer, c.sweepTimer, c.pingTimer, c.windowTimer} {
		t.Stop()
	}
	c.tx.CancelAll()
	c.recordObs()
}

// recordObs pushes the crawl's final statistics into the configured
// registry — once, when the crawl stops. The counts come from the crawler's
// own Stats (a deterministic function of the seed), and counter adds are
// atomic sums, so per-vantage crawlers running on any worker schedule
// produce identical registry totals.
func (c *Crawler) recordObs() {
	reg := c.cfg.Obs
	if reg == nil {
		return
	}
	st := c.Stats()
	reg.Counter("crawler_get_nodes_sent_total").Add(st.GetNodesSent)
	reg.Counter("crawler_pings_sent_total").Add(st.PingsSent)
	reg.Counter("crawler_replies_total").Add(st.MessagesReceived)
	reg.Counter("crawler_timeouts_total").Add(st.Timeouts)
	reg.Counter("crawler_retries_total").Add(st.Retries)
	reg.Counter("crawler_late_replies_total").Add(st.LateReplies)
	reg.Counter("crawler_evicted_total").Add(st.Evicted)
	reg.Counter("crawler_scope_suppressed_total").Add(st.ScopeSuppressed)
	reg.Counter("crawler_ping_rounds_total").Add(int64(st.PingRoundsRun))
	reg.Counter("crawler_sweeps_total").Add(int64(st.SweepsRun))
	reg.Counter("crawler_unique_ips_total").Add(int64(st.UniqueIPs))
	reg.Counter("crawler_nated_ips_total").Add(int64(st.NATedIPs))
	h := reg.Histogram("crawler_nat_users", []float64{2, 3, 4, 8, 16, 32, 64})
	for _, o := range c.NATed() {
		h.Observe(float64(o.Users))
	}
}

// Stats returns a snapshot of crawl statistics.
func (c *Crawler) Stats() Stats {
	s := c.stats
	s.UniqueIPs = len(c.ips)
	s.UniqueNodeIDs = len(c.nodeIDs)
	nated, multi, maxUsers := 0, 0, 0
	for _, rec := range c.ips {
		if rec.natConfirmed {
			nated++
			if rec.maxUsers > maxUsers {
				maxUsers = rec.maxUsers
			}
		}
		if len(rec.ports) > 1 {
			multi++
		}
	}
	s.NATedIPs, s.MultiPortIPs, s.SimultaneousMax = nated, multi, maxUsers
	s.MessagesSent = s.GetNodesSent + s.PingsSent
	s.MessagesReceived = s.GetNodesReplies + s.PingReplies
	if s.MessagesSent > 0 {
		s.ResponseRate = float64(s.MessagesReceived) / float64(s.MessagesSent)
	}
	return s
}

// InFlight returns the number of currently outstanding query transactions —
// the live depth of the bounded in-flight queue, reported in fleet worker
// heartbeats.
func (c *Crawler) InFlight() int { return c.tx.InFlight() }

// NATed returns all confirmed NATed addresses sorted by address.
func (c *Crawler) NATed() []NATObservation {
	var out []NATObservation
	for _, rec := range c.ips {
		if rec.natConfirmed {
			out = append(out, NATObservation{
				Addr:           rec.addr,
				Users:          rec.maxUsers,
				FirstConfirmed: rec.firstConfirm,
				PortsSeen:      len(rec.ports),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// ObservedIPs returns every BitTorrent IP the crawler has seen.
func (c *Crawler) ObservedIPs() *iputil.Set {
	s := iputil.NewSet()
	for a := range c.ips {
		s.Add(a)
	}
	return s
}

// MultiPortAddrs returns every IP that ever showed more than one port —
// the naive NAT signal before bt_ping verification. Comparing it with
// NATed() quantifies how many would-be false positives (port changes,
// stale entries) the paper's verification rule removes.
func (c *Crawler) MultiPortAddrs() *iputil.Set {
	s := iputil.NewSet()
	for a, rec := range c.ips {
		if len(rec.ports) > 1 {
			s.Add(a)
		}
	}
	return s
}

func (c *Crawler) inScope(a iputil.Addr) bool {
	return c.cfg.Scope == nil || c.cfg.Scope(a)
}

func (c *Crawler) enqueue(ep netsim.Endpoint) {
	if c.queued[ep] || c.evicted[ep] {
		return
	}
	if !c.inScope(ep.Addr) {
		c.stats.ScopeSuppressed++
		return
	}
	c.queued[ep] = true
	c.queue = append(c.queue, ep)
}

func (c *Crawler) scheduleTick() {
	c.tickTimer = c.clock.AfterEvent(c.cfg.Tick, (*crawlerTimers)(c), evTick)
}

func (c *Crawler) scheduleSweep() {
	c.sweepTimer = c.clock.AfterEvent(c.cfg.SweepInterval, (*crawlerTimers)(c), evSweep)
}

func (c *Crawler) schedulePingRound() {
	c.pingTimer = c.clock.AfterEvent(c.cfg.PingInterval, (*crawlerTimers)(c), evPingRound)
}

// pump issues up to BatchPerTick get_nodes messages from the front of the
// discovery queue, honouring the per-IP cool-down. Endpoints whose IP is in
// cool-down are dropped from the queue (not rotated — that would make idle
// ticks quadratic); the next sweep re-enqueues every known endpoint anyway.
// Under a fleet budget the batch additionally shrinks to what the Limiter
// grants, and issuing pauses while MaxInflight transactions are outstanding.
func (c *Crawler) pump() {
	now := c.clock.Now()
	batch := c.cfg.BatchPerTick
	if c.cfg.Limiter != nil {
		batch = c.cfg.Limiter.Take(now, batch)
	}
	sent := 0
	for len(c.queue) > 0 && sent < batch {
		if c.cfg.MaxInflight > 0 && c.tx.InFlight() >= c.cfg.MaxInflight {
			break
		}
		ep := c.queue[0]
		c.queue = c.queue[1:]
		delete(c.queued, ep)
		rec := c.ips[ep.Addr]
		if rec != nil && now.Sub(rec.lastContact) < c.cfg.Cooldown {
			continue
		}
		if c.cfg.MaxPerNode > 0 && c.tx.Outstanding(ep) >= c.cfg.MaxPerNode {
			continue
		}
		if rec != nil {
			rec.lastContact = now
		}
		var target krpc.NodeID
		c.rng.Read(target[:])
		tx := c.newTx()
		c.sendQuery(ep, krpc.NewFindNode(tx[:], c.id, target), false)
		sent++
	}
}

// sweep re-enqueues every known endpoint so ongoing crawling discovers new
// ports and users.
func (c *Crawler) sweep() {
	c.stats.SweepsRun++
	// Query-batch span: the sweep's frontier size is simulation state, so
	// the attribute is deterministic; only the wall fields vary.
	sp := c.cfg.Trace.Child(fmt.Sprintf("sweep %04d", c.stats.SweepsRun))
	defer func() {
		sp.SetAttr(obs.Int("known_ips", int64(len(c.ips))))
		sp.End()
	}()
	for _, ep := range c.cfg.Bootstrap {
		c.enqueue(ep)
	}
	type key struct {
		a iputil.Addr
		p uint16
	}
	var all []key
	for addr, rec := range c.ips {
		for port := range rec.ports {
			all = append(all, key{addr, port})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].a != all[j].a {
			return all[i].a < all[j].a
		}
		return all[i].p < all[j].p
	})
	for _, k := range all {
		c.enqueue(netsim.Endpoint{Addr: k.a, Port: k.p})
	}
}

// pingRound sends bt_ping to every discovered port of every multi-port IP
// and scores replies after PingWindow.
func (c *Crawler) pingRound() {
	c.stats.PingRoundsRun++
	sp := c.cfg.Trace.Child(fmt.Sprintf("ping round %04d", c.stats.PingRoundsRun))
	now := c.clock.Now()
	var candidates []*ipRecord
	for _, rec := range c.ips {
		if len(rec.ports) < 2 || !c.inScope(rec.addr) {
			continue
		}
		candidates = append(candidates, rec)
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].addr < candidates[j].addr })
	for _, rec := range candidates {
		rec.inRound = true
		rec.roundReplies = make(map[uint16]krpc.NodeID)
		rec.lastContact = now
		ports := make([]int, 0, len(rec.ports))
		for p := range rec.ports {
			ports = append(ports, int(p))
		}
		sort.Ints(ports)
		for _, p := range ports {
			tx := c.newTx()
			c.sendQuery(netsim.Endpoint{Addr: rec.addr, Port: uint16(p)}, krpc.NewPing(tx[:], c.id), true)
		}
	}
	sp.SetAttr(obs.Int("candidates", int64(len(candidates))))
	sp.End()
	if len(candidates) == 0 {
		return
	}
	// A window longer than PingInterval outlives its handle; the running
	// check keeps such a window from scoring after Stop.
	c.windowTimer = c.clock.After(c.cfg.PingWindow, func() {
		if c.running {
			c.scoreRound(candidates)
		}
	})
}

// scoreRound applies the paper's rule: an IP is NATed when at least two
// distinct ports replied with at least two distinct node IDs in one round.
func (c *Crawler) scoreRound(candidates []*ipRecord) {
	now := c.clock.Now()
	for _, rec := range candidates {
		if !rec.inRound {
			continue
		}
		rec.inRound = false
		distinctIDs := make(map[krpc.NodeID]bool)
		respondingPorts := 0
		for _, id := range rec.roundReplies {
			respondingPorts++
			distinctIDs[id] = true
		}
		// Simultaneous users is bounded below by distinct (port, id)
		// pairs with distinct IDs.
		users := len(distinctIDs)
		if respondingPorts < users {
			users = respondingPorts
		}
		if respondingPorts >= 2 && len(distinctIDs) >= 2 {
			if !rec.natConfirmed {
				rec.natConfirmed = true
				rec.firstConfirm = now
			}
			if users > rec.maxUsers {
				rec.maxUsers = users
			}
		}
		rec.roundReplies = nil
	}
}

func (c *Crawler) sendQuery(to netsim.Endpoint, msg *krpc.Message, isPing bool) {
	data, err := msg.AppendMarshal(c.buf[:0])
	if err != nil {
		return
	}
	c.buf = data
	tx := c.tx.Register(Tx{ID: binary.BigEndian.Uint64(msg.TxID), To: to, IsPing: isPing, Data: data, Attempts: 1})
	tx.Timer = c.armTimeout(tx.ID)
	if isPing {
		c.stats.PingsSent++
		c.logEvent(LogEvent{At: c.clock.Now(), Kind: EvPingTx, Addr: to.Addr, Port: to.Port})
	} else {
		c.stats.GetNodesSent++
		c.logEvent(LogEvent{At: c.clock.Now(), Kind: EvGetNodesTx, Addr: to.Addr, Port: to.Port})
	}
	c.sock.Send(to, data)
}

// armTimeout starts the response deadline for a pending transaction.
func (c *Crawler) armTimeout(tx uint64) dht.Timer {
	return c.clock.AfterEvent(c.cfg.QueryTimeout, (*crawlerTimers)(c), tx<<timerKindBits|evDeadline)
}

// queryTimeout fires when a transaction's deadline passes unanswered: either
// the query earns a retry (exponential backoff plus deterministic jitter) or
// it is scored a failure — counted as a timeout, remembered for late-reply
// accounting, and charged against the endpoint's failure score.
func (c *Crawler) queryTimeout(tx uint64) {
	p, ok := c.tx.Get(tx)
	if !ok {
		return
	}
	if c.running && p.Attempts <= c.cfg.MaxRetries {
		c.stats.Retries++
		backoff := c.cfg.RetryBase << (p.Attempts - 1)
		backoff += time.Duration(c.rng.Int63n(int64(backoff)/2 + 1))
		p.Timer = c.clock.AfterEvent(backoff, (*crawlerTimers)(c), tx<<timerKindBits|evRetransmit)
		return
	}
	failed, _ := c.tx.Fail(tx)
	c.stats.Timeouts++
	c.noteFailure(failed.To)
}

func (c *Crawler) retransmit(tx uint64) {
	p, ok := c.tx.Get(tx)
	if !ok || !c.running {
		return
	}
	p.Attempts++
	p.Timer = c.armTimeout(tx)
	c.sock.Send(p.To, p.Data)
}

// noteFailure charges one dead query against an endpoint; at EvictAfter
// consecutive failures the endpoint leaves the discovery frontier.
func (c *Crawler) noteFailure(ep netsim.Endpoint) {
	if c.cfg.EvictAfter <= 0 {
		return
	}
	c.failures[ep]++
	if c.failures[ep] >= c.cfg.EvictAfter && !c.evicted[ep] {
		c.evicted[ep] = true
		c.stats.Evicted++
	}
}

// noteSuccess clears an endpoint's failure score; a reply — even a late one
// — proves it alive and resurrects it if evicted.
func (c *Crawler) noteSuccess(ep netsim.Endpoint) {
	if c.cfg.EvictAfter <= 0 {
		return
	}
	delete(c.failures, ep)
	delete(c.evicted, ep)
}

func (c *Crawler) logEvent(ev LogEvent) {
	if c.cfg.EventLog == nil {
		return
	}
	_ = writeEvent(c.cfg.EventLog, ev)
}

// handle processes crawler responses, decoded into a stack Message.
func (c *Crawler) handle(from netsim.Endpoint, payload []byte) {
	if c.stopped {
		return
	}
	m := krpc.Message{Nodes: c.nodeBuf}
	if krpc.UnmarshalInto(payload, &m) != nil {
		return
	}
	if cap(m.Nodes) > cap(c.nodeBuf) {
		c.nodeBuf = m.Nodes[:0]
	}
	switch m.Kind {
	case krpc.KindResponse:
		if len(m.TxID) != 8 {
			return // not a transaction of ours
		}
		tx := binary.BigEndian.Uint64(m.TxID)
		p, ok := c.tx.Resolve(tx)
		if !ok {
			// A response to a query already scored a timeout: count it,
			// log it, and clear the endpoint's failure score, but do not
			// feed it into discovery — its round is over.
			if to, late := c.tx.ResolveLate(tx); late {
				c.stats.LateReplies++
				c.noteSuccess(to)
				c.logEvent(LogEvent{At: c.clock.Now(), Kind: EvLateRx, Addr: from.Addr, Port: from.Port, NodeID: m.ID, HasID: true})
			}
			return
		}
		c.noteSuccess(p.To)
		// Responses can legitimately come from a different port than the
		// one probed (NAT rewriting); record what we actually saw.
		c.observe(from, m.ID, c.clock.Now())
		if p.IsPing {
			c.stats.PingReplies++
			c.logEvent(LogEvent{At: c.clock.Now(), Kind: EvPingRx, Addr: from.Addr, Port: from.Port, NodeID: m.ID, HasID: true})
			rec := c.ips[from.Addr]
			if rec != nil && rec.inRound {
				rec.roundReplies[from.Port] = m.ID
			}
		} else {
			c.stats.GetNodesReplies++
			c.logEvent(LogEvent{At: c.clock.Now(), Kind: EvGetNodesRx, Addr: from.Addr, Port: from.Port, NodeID: m.ID, HasID: true})
			for _, info := range m.Nodes {
				c.logEvent(LogEvent{At: c.clock.Now(), Kind: EvObserve, Addr: info.Addr, Port: info.Port, NodeID: info.ID, HasID: true})
				c.observe(netsim.Endpoint{Addr: info.Addr, Port: info.Port}, info.ID, c.clock.Now())
				c.enqueue(netsim.Endpoint{Addr: info.Addr, Port: info.Port})
			}
		}
	case krpc.KindQuery:
		// The crawler is a passive DHT citizen: it answers pings so it is
		// not evicted from peers' tables, but returns no neighbours.
		if m.Method == krpc.MethodPing {
			resp := krpc.NewPingResponse(m.TxID, c.id, nil)
			if data, err := resp.AppendMarshal(c.buf[:0]); err == nil {
				c.buf = data
				c.sock.Send(from, data)
			}
		}
	}
}

// observe records an (endpoint, node ID) sighting.
func (c *Crawler) observe(ep netsim.Endpoint, id krpc.NodeID, now time.Time) {
	if !c.inScope(ep.Addr) {
		c.stats.ScopeSuppressed++
		return
	}
	c.nodeIDs[id] = true
	rec := c.ips[ep.Addr]
	if rec == nil {
		rec = &ipRecord{addr: ep.Addr, ports: make(map[uint16]*portInfo)}
		c.ips[ep.Addr] = rec
	}
	pi := rec.ports[ep.Port]
	if pi == nil {
		pi = &portInfo{firstSeen: now, nodeIDs: make(map[krpc.NodeID]bool)}
		rec.ports[ep.Port] = pi
	}
	pi.lastSeen = now
	pi.nodeIDs[id] = true
}

// newTx returns the next transaction ID: the sequence number's 8
// big-endian bytes.
func (c *Crawler) newTx() (tx [8]byte) {
	c.txSeq++
	binary.BigEndian.PutUint64(tx[:], c.txSeq)
	return tx
}
