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
	"slices"
	"time"

	"github.com/reuseblock/reuseblock/internal/dht"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/netsim"
	"github.com/reuseblock/reuseblock/internal/obs"
)

// The crawl's fixed timings.
const (
	// pingInterval is the period of bt_ping verification rounds (paper:
	// hourly).
	pingInterval = time.Hour
	// pingWindow is how long a round waits before scoring replies.
	pingWindow = 30 * time.Second
	// tick is the pump granularity: BatchPerTick messages go out per tick.
	tick = time.Second
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
	// SweepInterval is the period of discovery sweeps re-querying known
	// endpoints for new neighbours.
	SweepInterval time.Duration
	// BatchPerTick messages are issued per tick so the crawler is
	// rate-limited as the paper describes.
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
	if c.SweepInterval <= 0 {
		c.SweepInterval = time.Hour
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

// lateWindowMax bounds how many timed-out transactions are remembered for
// late-reply accounting; the oldest are forgotten first.
const lateWindowMax = 4096

// Crawler is the NAT-detection crawler.
type Crawler struct {
	cfg     Config
	sock    netsim.Socket
	clock   crawlClock
	rng     *rand.Rand
	id      krpc.NodeID
	txSeq   uint64
	tx      *TxManager
	nodeIDs map[krpc.NodeID]struct{} // serves only Stats.UniqueNodeIDs
	stats   Stats
	running bool
	stopped bool
	// st is the per-address and per-port state (state.go).
	st addrTable
	// queue is the discovery frontier as port slots; queue[qhead:] is
	// still to be pumped.
	queue []uint32
	qhead int
	// epoch is the clock's reading at New; the state's timestamps count
	// nanoseconds from it.
	epoch time.Time
	// One handle per recurring timer, replaced each time it re-arms, so a
	// 48 h crawl holds no more handles than a 1 h one.
	bootTimer, tickTimer, sweepTimer, pingTimer, windowTimer netsim.Timer
	// nodeBuf backs decoded find_node responses and buf encodes outgoing
	// messages, so neither allocates per datagram.
	nodeBuf []krpc.NodeInfo
	buf     []byte
	// roundCands holds the candidates of every ping round whose window
	// has yet to close, oldest round first; idScratch dedups one
	// candidate's reply IDs when a window scores it.
	roundCands []uint32
	idScratch  []krpc.NodeID
}

// crawlerTimers is a Crawler as the target of its timers, which keeps
// Fire out of Crawler's method set. A timer's argument holds its kind in
// the low timerKindBits bits and, above them, the transaction ID of a
// per-query timer or the candidate count of a ping-round window.
type crawlerTimers Crawler

// Timer kinds.
const (
	evTick = iota
	evSweep
	evPingRound
	evDeadline   // a query's response deadline
	evRetransmit // a timed-out query's retry backoff
	evBoot       // a bootstrap retry
	evPingWindow // a ping round's scoring window

	timerKindBits = 3
)

func (t *crawlerTimers) Fire(arg uint64) {
	c := (*Crawler)(t)
	tx := arg >> timerKindBits
	switch arg & (1<<timerKindBits - 1) {
	case evBoot:
		c.boot()
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
	case evPingWindow:
		c.closeWindow(int(arg >> timerKindBits))
	}
}

// crawlClock is the crawler's view of time. *netsim.Clock is the only
// implementation outside tests; the interface lets a test move time
// without firing timers.
type crawlClock interface {
	Now() time.Time
	AfterEvent(d time.Duration, t netsim.Target, arg uint64) netsim.Timer
}

// New builds a crawler on the given socket, keeping time on clock.
func New(sock netsim.Socket, clock *netsim.Clock, cfg Config) *Crawler {
	return newCrawler(sock, clock, cfg)
}

func newCrawler(sock netsim.Socket, clock crawlClock, cfg Config) *Crawler {
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
		st:      newAddrTable(),
		nodeIDs: make(map[krpc.NodeID]struct{}),
		epoch:   clock.Now(),
		nodeBuf: make([]krpc.NodeInfo, 0, dht.BucketSize),
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
	c.bootTimer = c.clock.AfterEvent(0, (*crawlerTimers)(c), evBoot)
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
	for _, t := range []netsim.Timer{c.bootTimer, c.tickTimer, c.sweepTimer, c.pingTimer, c.windowTimer} {
		t.Stop()
	}
	c.tx.CancelAll()
	c.recordObs()
}

// boot enqueues the bootstrap endpoints. UDP makes a single contact attempt
// flaky, so until the first reply arrives the entry points are re-queried
// every QueryTimeout. After that, sweeps re-enqueue them with everything
// else.
func (c *Crawler) boot() {
	if !c.running || c.stats.GetNodesReplies+c.stats.PingReplies > 0 {
		return
	}
	for _, ep := range c.cfg.Bootstrap {
		c.enqueueEndpoint(ep)
	}
	c.bootTimer = c.clock.AfterEvent(c.cfg.QueryTimeout, (*crawlerTimers)(c), evBoot)
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
	s.UniqueIPs = c.st.observed
	s.UniqueNodeIDs = len(c.nodeIDs)
	nated, multi, maxUsers := 0, 0, 0
	for h := range c.st.addrs {
		if c.st.flags[h]&addrNATed != 0 {
			nated++
			maxUsers = max(maxUsers, int(c.st.maxUsers[h]))
		}
		if c.st.ports[h].seen > 1 {
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

// NATed returns all confirmed NATed addresses sorted by address.
func (c *Crawler) NATed() []NATObservation {
	var out []NATObservation
	for _, h := range c.st.sorted() {
		if c.st.flags[h]&addrNATed != 0 {
			out = append(out, NATObservation{
				Addr:           c.st.addrs[h],
				Users:          int(c.st.maxUsers[h]),
				FirstConfirmed: c.epoch.Add(time.Duration(c.st.firstConfirm[h])),
				PortsSeen:      int(c.st.ports[h].seen),
			})
		}
	}
	return out
}

// ObservedIPs returns every BitTorrent IP the crawler has seen.
func (c *Crawler) ObservedIPs() *iputil.Set {
	s := iputil.NewSet()
	for h, a := range c.st.addrs {
		if c.st.ports[h].seen > 0 {
			s.Add(a)
		}
	}
	return s
}

// MultiPortAddrs returns every IP that ever showed more than one port —
// the naive NAT signal before bt_ping verification. Comparing it with
// NATed() quantifies how many would-be false positives (port changes,
// stale entries) the paper's verification rule removes.
func (c *Crawler) MultiPortAddrs() *iputil.Set {
	s := iputil.NewSet()
	for h, a := range c.st.addrs {
		if c.st.ports[h].seen > 1 {
			s.Add(a)
		}
	}
	return s
}

func (c *Crawler) inScope(a iputil.Addr) bool {
	return c.cfg.Scope == nil || c.cfg.Scope(a)
}

// now returns the clock's reading as nanoseconds since the crawler's epoch.
func (c *Crawler) now() int64 { return int64(c.clock.Now().Sub(c.epoch)) }

// enqueueEndpoint puts an endpoint that was never sighted, a bootstrap
// node, on the discovery queue if it is in scope.
func (c *Crawler) enqueueEndpoint(ep netsim.Endpoint) {
	if !c.inScope(ep.Addr) {
		c.stats.ScopeSuppressed++
		return
	}
	c.enqueue(c.st.slotFor(ep))
}

// enqueue puts an in-scope port slot on the discovery queue unless it is
// already there or evicted.
func (c *Crawler) enqueue(s uint32) {
	sl := &c.st.slots[s]
	if sl.flags&(slotQueued|slotEvicted) != 0 {
		return
	}
	sl.flags |= slotQueued
	if len(c.queue) == cap(c.queue) && c.qhead >= len(c.queue)/2 {
		c.queue = c.queue[:copy(c.queue, c.queue[c.qhead:])]
		c.qhead = 0
	}
	c.queue = append(c.queue, s)
}

func (c *Crawler) scheduleTick() {
	c.tickTimer = c.clock.AfterEvent(tick, (*crawlerTimers)(c), evTick)
}

func (c *Crawler) scheduleSweep() {
	c.sweepTimer = c.clock.AfterEvent(c.cfg.SweepInterval, (*crawlerTimers)(c), evSweep)
}

func (c *Crawler) schedulePingRound() {
	c.pingTimer = c.clock.AfterEvent(pingInterval, (*crawlerTimers)(c), evPingRound)
}

// pump issues up to BatchPerTick get_nodes messages from the front of the
// discovery queue, honouring the per-IP cool-down. Endpoints whose IP is in
// cool-down are dropped from the queue (not rotated — that would make idle
// ticks quadratic); the next sweep re-enqueues every known endpoint anyway.
func (c *Crawler) pump() {
	now := int64(c.clock.Now().Sub(c.epoch))
	sent := 0
	for c.qhead < len(c.queue) && sent < c.cfg.BatchPerTick {
		s := c.queue[c.qhead]
		c.qhead++
		sl := &c.st.slots[s]
		sl.flags &^= slotQueued
		h := sl.handle
		if last := c.st.lastContact[h]; last != neverContacted && now-last < int64(c.cfg.Cooldown) {
			continue
		}
		// A bootstrap node has a handle before it is seen; its cool-down
		// starts with the first query after that.
		if c.st.ports[h].seen > 0 {
			c.st.lastContact[h] = now
		}
		var target krpc.NodeID
		c.rng.Read(target[:])
		tx := c.newTx()
		c.sendQuery(s, krpc.NewFindNode(tx[:], c.id, target), false)
		sent++
	}
	if c.qhead == len(c.queue) {
		c.queue, c.qhead = c.queue[:0], 0
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
		sp.SetAttr(obs.Int("known_ips", int64(c.st.observed)))
		sp.End()
	}()
	for _, ep := range c.cfg.Bootstrap {
		c.enqueueEndpoint(ep)
	}
	for _, h := range c.st.sorted() {
		for _, s := range c.st.portsOf(h) {
			if c.st.slots[s].flags&slotSeen != 0 {
				c.enqueue(s)
			}
		}
	}
}

// pingRound sends bt_ping to every discovered port of every multi-port IP
// and scores replies after pingWindow.
func (c *Crawler) pingRound() {
	c.stats.PingRoundsRun++
	sp := c.cfg.Trace.Child(fmt.Sprintf("ping round %04d", c.stats.PingRoundsRun))
	now := c.now()
	first := len(c.roundCands)
	for _, h := range c.st.sorted() {
		if c.st.ports[h].seen < 2 {
			continue
		}
		c.roundCands = append(c.roundCands, h)
		c.st.flags[h] |= addrInRound
		c.st.lastContact[h] = now
		for _, s := range c.st.portsOf(h) {
			sl := &c.st.slots[s]
			sl.flags &^= slotReplied
			if sl.flags&slotSeen != 0 {
				tx := c.newTx()
				c.sendQuery(s, krpc.NewPing(tx[:], c.id), true)
			}
		}
	}
	n := len(c.roundCands) - first
	sp.SetAttr(obs.Int("candidates", int64(n)))
	sp.End()
	if n == 0 {
		return
	}
	c.windowTimer = c.clock.AfterEvent(pingWindow, (*crawlerTimers)(c), uint64(n)<<timerKindBits|evPingWindow)
}

// closeWindow scores the oldest pending round, whose n candidates head
// roundCands: windows close in the order their rounds ran.
func (c *Crawler) closeWindow(n int) {
	if !c.running {
		return
	}
	c.scoreRound(c.roundCands[:n])
	c.roundCands = c.roundCands[:copy(c.roundCands, c.roundCands[n:])]
}

// scoreRound applies the paper's rule: an IP is NATed when at least two
// distinct ports replied with at least two distinct node IDs in one round.
func (c *Crawler) scoreRound(candidates []uint32) {
	now := c.now()
	for _, h := range candidates {
		if c.st.flags[h]&addrInRound == 0 {
			continue
		}
		c.st.flags[h] &^= addrInRound
		ids := c.idScratch[:0]
		respondingPorts := 0
		for _, s := range c.st.portsOf(h) {
			sl := &c.st.slots[s]
			if sl.flags&slotReplied == 0 {
				continue
			}
			respondingPorts++
			if !slices.Contains(ids, sl.replyID) {
				ids = append(ids, sl.replyID)
			}
		}
		c.idScratch = ids
		// Simultaneous users is bounded below by distinct (port, id)
		// pairs with distinct IDs.
		users := min(len(ids), respondingPorts)
		if respondingPorts >= 2 && len(ids) >= 2 {
			if c.st.flags[h]&addrNATed == 0 {
				c.st.flags[h] |= addrNATed
				c.st.firstConfirm[h] = now
			}
			if users > int(c.st.maxUsers[h]) {
				c.st.maxUsers[h] = int32(users)
			}
		}
	}
}

// sendQuery sends a query to port slot s and registers its transaction.
func (c *Crawler) sendQuery(s uint32, msg *krpc.Message, isPing bool) {
	data, err := msg.AppendMarshal(c.buf[:0])
	if err != nil {
		return
	}
	c.buf = data
	to := c.st.endpoint(s)
	tx := c.tx.Register(Tx{ID: binary.BigEndian.Uint64(msg.TxID), To: to, IsPing: isPing, Data: data, Attempts: 1, slot: s})
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
func (c *Crawler) armTimeout(tx uint64) netsim.Timer {
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
	c.noteFailure(failed.slot)
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

// noteFailure charges one dead query against a port slot; at EvictAfter
// consecutive failures the endpoint leaves the discovery frontier.
func (c *Crawler) noteFailure(s uint32) {
	if c.cfg.EvictAfter <= 0 {
		return
	}
	sl := &c.st.slots[s]
	if int(sl.failures) < c.cfg.EvictAfter {
		sl.failures++
	}
	if int(sl.failures) >= c.cfg.EvictAfter && sl.flags&slotEvicted == 0 {
		sl.flags |= slotEvicted
		c.stats.Evicted++
	}
}

// noteSuccess clears a port slot's failure score; a reply — even a late one
// — proves it alive and resurrects it if evicted.
func (c *Crawler) noteSuccess(s uint32) {
	sl := &c.st.slots[s]
	sl.failures = 0
	sl.flags &^= slotEvicted
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
				if s, ok := c.st.lookup(to); ok {
					c.noteSuccess(s)
				}
				c.logEvent(LogEvent{At: c.clock.Now(), Kind: EvLateRx, Addr: from.Addr, Port: from.Port, NodeID: m.ID, HasID: true})
			}
			return
		}
		c.noteSuccess(p.slot)
		// Responses can legitimately come from a different port than the
		// one probed (NAT rewriting); record what we actually saw.
		s, sighted := c.sight(from, m.ID)
		if p.IsPing {
			c.stats.PingReplies++
			c.logEvent(LogEvent{At: c.clock.Now(), Kind: EvPingRx, Addr: from.Addr, Port: from.Port, NodeID: m.ID, HasID: true})
			if sighted {
				if sl := &c.st.slots[s]; c.st.flags[sl.handle]&addrInRound != 0 {
					sl.replyID = m.ID
					sl.flags |= slotReplied
				}
			}
		} else {
			c.stats.GetNodesReplies++
			c.logEvent(LogEvent{At: c.clock.Now(), Kind: EvGetNodesRx, Addr: from.Addr, Port: from.Port, NodeID: m.ID, HasID: true})
			for _, info := range m.Nodes {
				c.logEvent(LogEvent{At: c.clock.Now(), Kind: EvObserve, Addr: info.Addr, Port: info.Port, NodeID: info.ID, HasID: true})
				ep := netsim.Endpoint{Addr: info.Addr, Port: info.Port}
				if !c.inScope(ep.Addr) {
					// Refused twice, as the sighting and as the discovery
					// it would have fed.
					c.stats.ScopeSuppressed += 2
					continue
				}
				c.enqueue(c.observe(ep, info.ID))
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

// sight records a sighting if ep is in scope, returning its port slot.
func (c *Crawler) sight(ep netsim.Endpoint, id krpc.NodeID) (uint32, bool) {
	if !c.inScope(ep.Addr) {
		c.stats.ScopeSuppressed++
		return 0, false
	}
	return c.observe(ep, id), true
}

// observe records a sighting of an in-scope endpoint and returns its port
// slot.
func (c *Crawler) observe(ep netsim.Endpoint, id krpc.NodeID) uint32 {
	s := c.st.slotFor(ep)
	if sl := &c.st.slots[s]; sl.flags&slotSeen == 0 || !sl.lastID.Equal(&id) {
		c.nodeIDs[id] = struct{}{}
		sl.lastID = id
	}
	c.st.see(s)
	return s
}

// newTx returns the next transaction ID: the sequence number's 8
// big-endian bytes.
func (c *Crawler) newTx() (tx [8]byte) {
	c.txSeq++
	binary.BigEndian.PutUint64(tx[:], c.txSeq)
	return tx
}
