package crawler

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/dht"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

// refCrawler is the crawler's bookkeeping as it was kept before the handle
// table: a record per address holding a map of ports, and endpoint-keyed
// maps for the frontier, failures, evictions and per-node outstanding
// counts. FuzzCrawlerState drives it and a real Crawler with one operation
// stream and requires the two to agree.
type refCrawler struct {
	cfg      Config
	now      time.Time
	ips      map[iputil.Addr]*refRecord
	nodeIDs  map[krpc.NodeID]bool
	queue    []netsim.Endpoint
	queued   map[netsim.Endpoint]bool
	failures map[netsim.Endpoint]int
	evicted  map[netsim.Endpoint]bool
	pending  map[uint64]refTx
	perNode  map[netsim.Endpoint]int
	late     map[uint64]netsim.Endpoint
	txSeq    uint64
	stats    Stats
	sent     []refSend
	// windows holds each open ping round's candidates, oldest first.
	windows [][]*refRecord
}

type refRecord struct {
	addr         iputil.Addr
	ports        map[uint16]bool
	lastContact  time.Time
	natConfirmed bool
	firstConfirm time.Time
	maxUsers     int
	roundReplies map[uint16]krpc.NodeID
	inRound      bool
}

type refTx struct {
	to     netsim.Endpoint
	isPing bool
}

type refSend struct {
	To     netsim.Endpoint
	TxID   uint64
	IsPing bool
}

func newRefCrawler(cfg Config, now time.Time) *refCrawler {
	return &refCrawler{
		cfg:      cfg,
		now:      now,
		ips:      make(map[iputil.Addr]*refRecord),
		nodeIDs:  make(map[krpc.NodeID]bool),
		queued:   make(map[netsim.Endpoint]bool),
		failures: make(map[netsim.Endpoint]int),
		evicted:  make(map[netsim.Endpoint]bool),
		pending:  make(map[uint64]refTx),
		perNode:  make(map[netsim.Endpoint]int),
		late:     make(map[uint64]netsim.Endpoint),
	}
}

func (r *refCrawler) inScope(a iputil.Addr) bool { return r.cfg.Scope == nil || r.cfg.Scope(a) }

func (r *refCrawler) enqueue(ep netsim.Endpoint) {
	if r.queued[ep] || r.evicted[ep] {
		return
	}
	if !r.inScope(ep.Addr) {
		r.stats.ScopeSuppressed++
		return
	}
	r.queued[ep] = true
	r.queue = append(r.queue, ep)
}

func (r *refCrawler) observe(ep netsim.Endpoint, id krpc.NodeID) {
	if !r.inScope(ep.Addr) {
		r.stats.ScopeSuppressed++
		return
	}
	r.nodeIDs[id] = true
	rec := r.ips[ep.Addr]
	if rec == nil {
		rec = &refRecord{addr: ep.Addr, ports: make(map[uint16]bool)}
		r.ips[ep.Addr] = rec
	}
	rec.ports[ep.Port] = true
}

func (r *refCrawler) send(to netsim.Endpoint, isPing bool) {
	r.txSeq++
	r.pending[r.txSeq] = refTx{to, isPing}
	r.perNode[to]++
	r.sent = append(r.sent, refSend{to, r.txSeq, isPing})
	if isPing {
		r.stats.PingsSent++
	} else {
		r.stats.GetNodesSent++
	}
}

func (r *refCrawler) finish(id uint64) (refTx, bool) {
	t, ok := r.pending[id]
	if ok {
		delete(r.pending, id)
		r.perNode[t.to]--
	}
	return t, ok
}

func (r *refCrawler) boot() {
	if r.stats.GetNodesReplies+r.stats.PingReplies > 0 {
		return
	}
	for _, ep := range r.cfg.Bootstrap {
		r.enqueue(ep)
	}
}

func (r *refCrawler) pump() {
	sent := 0
	for len(r.queue) > 0 && sent < r.cfg.BatchPerTick {
		if r.cfg.MaxInflight > 0 && len(r.pending) >= r.cfg.MaxInflight {
			break
		}
		ep := r.queue[0]
		r.queue = r.queue[1:]
		delete(r.queued, ep)
		rec := r.ips[ep.Addr]
		if rec != nil && r.now.Sub(rec.lastContact) < r.cfg.Cooldown {
			continue
		}
		if r.cfg.MaxPerNode > 0 && r.perNode[ep] >= r.cfg.MaxPerNode {
			continue
		}
		if rec != nil {
			rec.lastContact = r.now
		}
		r.send(ep, false)
		sent++
	}
}

func (r *refCrawler) sweep() {
	r.stats.SweepsRun++
	for _, ep := range r.cfg.Bootstrap {
		r.enqueue(ep)
	}
	var all []netsim.Endpoint
	for addr, rec := range r.ips {
		for port := range rec.ports {
			all = append(all, netsim.Endpoint{Addr: addr, Port: port})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Addr != all[j].Addr {
			return all[i].Addr < all[j].Addr
		}
		return all[i].Port < all[j].Port
	})
	for _, ep := range all {
		r.enqueue(ep)
	}
}

func (r *refCrawler) pingRound() {
	r.stats.PingRoundsRun++
	var candidates []*refRecord
	for _, rec := range r.ips {
		if len(rec.ports) >= 2 && r.inScope(rec.addr) {
			candidates = append(candidates, rec)
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].addr < candidates[j].addr })
	for _, rec := range candidates {
		rec.inRound = true
		rec.roundReplies = make(map[uint16]krpc.NodeID)
		rec.lastContact = r.now
		var ports []int
		for p := range rec.ports {
			ports = append(ports, int(p))
		}
		sort.Ints(ports)
		for _, p := range ports {
			r.send(netsim.Endpoint{Addr: rec.addr, Port: uint16(p)}, true)
		}
	}
	if len(candidates) > 0 {
		r.windows = append(r.windows, candidates)
	}
}

func (r *refCrawler) closeWindow() {
	candidates := r.windows[0]
	r.windows = r.windows[1:]
	for _, rec := range candidates {
		if !rec.inRound {
			continue
		}
		rec.inRound = false
		distinct := make(map[krpc.NodeID]bool)
		for _, id := range rec.roundReplies {
			distinct[id] = true
		}
		users := min(len(distinct), len(rec.roundReplies))
		if len(rec.roundReplies) >= 2 && len(distinct) >= 2 {
			if !rec.natConfirmed {
				rec.natConfirmed = true
				rec.firstConfirm = r.now
			}
			rec.maxUsers = max(rec.maxUsers, users)
		}
		rec.roundReplies = nil
	}
}

func (r *refCrawler) timeout(id uint64) {
	t, ok := r.finish(id)
	if !ok {
		return
	}
	r.stats.Timeouts++
	r.late[id] = t.to
	if r.cfg.EvictAfter > 0 {
		r.failures[t.to]++
		if r.failures[t.to] >= r.cfg.EvictAfter && !r.evicted[t.to] {
			r.evicted[t.to] = true
			r.stats.Evicted++
		}
	}
}

func (r *refCrawler) success(ep netsim.Endpoint) {
	delete(r.failures, ep)
	delete(r.evicted, ep)
}

func (r *refCrawler) reply(from netsim.Endpoint, id uint64, nodeID krpc.NodeID, nodes []krpc.NodeInfo) {
	t, ok := r.finish(id)
	if !ok {
		if to, late := r.late[id]; late {
			delete(r.late, id)
			r.stats.LateReplies++
			r.success(to)
		}
		return
	}
	r.success(t.to)
	r.observe(from, nodeID)
	if t.isPing {
		r.stats.PingReplies++
		if rec := r.ips[from.Addr]; rec != nil && rec.inRound {
			rec.roundReplies[from.Port] = nodeID
		}
		return
	}
	r.stats.GetNodesReplies++
	for _, info := range nodes {
		ep := netsim.Endpoint{Addr: info.Addr, Port: info.Port}
		r.observe(ep, info.ID)
		r.enqueue(ep)
	}
}

func (r *refCrawler) Stats() Stats {
	s := r.stats
	s.UniqueIPs = len(r.ips)
	s.UniqueNodeIDs = len(r.nodeIDs)
	for _, rec := range r.ips {
		if rec.natConfirmed {
			s.NATedIPs++
			s.SimultaneousMax = max(s.SimultaneousMax, rec.maxUsers)
		}
		if len(rec.ports) > 1 {
			s.MultiPortIPs++
		}
	}
	s.MessagesSent = s.GetNodesSent + s.PingsSent
	s.MessagesReceived = s.GetNodesReplies + s.PingReplies
	if s.MessagesSent > 0 {
		s.ResponseRate = float64(s.MessagesReceived) / float64(s.MessagesSent)
	}
	return s
}

func (r *refCrawler) NATed() []NATObservation {
	var out []NATObservation
	for _, rec := range r.ips {
		if rec.natConfirmed {
			out = append(out, NATObservation{Addr: rec.addr, Users: rec.maxUsers, FirstConfirmed: rec.firstConfirm, PortsSeen: len(rec.ports)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

func (r *refCrawler) addrs(multi bool) []iputil.Addr {
	var out []iputil.Addr
	for a, rec := range r.ips {
		if !multi || len(rec.ports) > 1 {
			out = append(out, a)
		}
	}
	slices.Sort(out)
	return out
}

// manualClock is a dht.Clock whose time moves only when told and whose
// timers never fire; it records the ping-round windows the crawler arms so
// a test can close them.
type manualClock struct {
	now     time.Time
	windows []uint64
}

func (c *manualClock) Now() time.Time                        { return c.now }
func (c *manualClock) After(time.Duration, func()) dht.Timer { return dht.Timer{} }
func (c *manualClock) AfterEvent(_ time.Duration, _ netsim.Target, arg uint64) dht.Timer {
	if arg&(1<<timerKindBits-1) == evPingWindow {
		c.windows = append(c.windows, arg)
	}
	return dht.Timer{}
}

// sendLog is a netsim.Socket that records every query the crawler sends.
type sendLog struct{ sent []refSend }

func (s *sendLog) Send(to netsim.Endpoint, payload []byte) {
	m, err := krpc.Unmarshal(payload)
	if err != nil || m.Kind != krpc.KindQuery {
		return
	}
	s.sent = append(s.sent, refSend{to, binary.BigEndian.Uint64(m.TxID), m.Method == krpc.MethodPing})
}
func (s *sendLog) SetHandler(netsim.Handler)               {}
func (s *sendLog) PublicEndpoint() (netsim.Endpoint, bool) { return netsim.Endpoint{}, false }
func (s *sendLog) Close()                                  {}

// stateRun is one crawler and its reference under a shared operation
// stream.
type stateRun struct {
	c     *Crawler
	r     *refCrawler
	clock *manualClock
	sock  *sendLog
}

// Operation pools: few addresses, ports and IDs, so that sightings collide,
// addresses gather several ports and IDs repeat across ports.
var (
	stateAddrs = []iputil.Addr{0x0a000001, 0x0a000002, 0x0a000003, 0x0a000004, 0x0a000005, 0x0b000001, 0x0b000002, 0x01000001}
	statePorts = []uint16{6881, 6882, 7000, 51413, 1024, 65535}
)

func stateNodeID(i byte) krpc.NodeID { return krpc.GenerateNodeID(0x0a0000ff, uint64(i%6)) }

func newStateRun(cfg byte) *stateRun {
	config := Config{
		Bootstrap:    []netsim.Endpoint{{Addr: stateAddrs[0], Port: statePorts[0]}, {Addr: stateAddrs[7], Port: statePorts[1]}},
		Cooldown:     time.Duration(cfg&3) * 10 * time.Minute,
		BatchPerTick: 1 + int(cfg>>2&3),
		EvictAfter:   int(cfg >> 4 & 3),
		MaxPerNode:   int(cfg >> 6 & 1),
		MaxInflight:  int(cfg>>7&1) * 6,
		Seed:         1,
	}
	if (cfg^cfg>>2)&1 != 0 {
		// Scope out 11.0.0.0/8.
		config.Scope = func(a iputil.Addr) bool { return a>>24 != 11 }
	}
	clock := &manualClock{now: netsim.Epoch.Add(time.Hour)}
	sock := &sendLog{}
	c := New(sock, clock, config)
	c.Start()
	return &stateRun{c: c, r: newRefCrawler(c.cfg, clock.now), clock: clock, sock: sock}
}

// pendingID returns the k-th (mod count) outstanding transaction of the
// reference, in ID order.
func (s *stateRun) pendingID(k byte) (uint64, refTx, bool) {
	if len(s.r.pending) == 0 {
		return 0, refTx{}, false
	}
	ids := make([]uint64, 0, len(s.r.pending))
	for id := range s.r.pending {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	id := ids[int(k)%len(ids)]
	return id, s.r.pending[id], true
}

// step applies one operation, read from op and the bytes after it, to both
// crawlers and returns how many bytes it used.
func (s *stateRun) step(t *testing.T, data []byte) int {
	arg := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	switch data[0] % 9 {
	case 0: // a reply to an outstanding query, maybe from another port
		id, tx, ok := s.pendingID(arg(1))
		if !ok {
			return 2
		}
		from := tx.to
		if arg(2)&3 == 3 {
			from.Port = statePorts[int(arg(2)>>2)%len(statePorts)]
		}
		var nodes []krpc.NodeInfo
		if !tx.isPing {
			for i := 0; i < int(arg(3)%4); i++ {
				b := arg(4 + i)
				nodes = append(nodes, krpc.NodeInfo{ID: stateNodeID(b >> 5), Addr: stateAddrs[b%8], Port: statePorts[int(b>>3)%len(statePorts)]})
			}
		}
		s.reply(t, from, id, stateNodeID(arg(2)>>4), tx.isPing, nodes)
		return 4 + len(nodes)
	case 1: // a query times out
		if id, _, ok := s.pendingID(arg(1)); ok {
			s.c.queryTimeout(id)
			s.r.timeout(id)
		}
		return 2
	case 2: // a reply after its query timed out, or to no query at all
		id := uint64(arg(1))
		if to, ok := s.r.late[id]; ok {
			s.reply(t, to, id, stateNodeID(arg(1)), false, nil)
		} else {
			s.reply(t, netsim.Endpoint{Addr: stateAddrs[0], Port: statePorts[0]}, id+1000, stateNodeID(0), false, nil)
		}
		return 2
	case 3:
		s.c.pump()
		s.r.pump()
	case 4:
		s.c.sweep()
		s.r.sweep()
	case 5:
		s.c.pingRound()
		s.r.pingRound()
	case 6: // the oldest open ping window closes
		if len(s.clock.windows) > 0 {
			arg := s.clock.windows[0]
			s.clock.windows = s.clock.windows[1:]
			(*crawlerTimers)(s.c).Fire(arg)
			s.r.closeWindow()
		}
	case 7:
		d := time.Duration(arg(1)) * time.Minute / 4
		s.clock.now = s.clock.now.Add(d)
		s.r.now = s.clock.now
		return 2
	case 8:
		s.c.boot()
		s.r.boot()
	}
	return 1
}

// reply delivers a response to the crawler and the reference.
func (s *stateRun) reply(t *testing.T, from netsim.Endpoint, id uint64, nodeID krpc.NodeID, isPing bool, nodes []krpc.NodeInfo) {
	var tx [8]byte
	binary.BigEndian.PutUint64(tx[:], id)
	m := krpc.NewFindNodeResponse(tx[:], nodeID, nodes, nil)
	if isPing {
		m = krpc.NewPingResponse(tx[:], nodeID, nil)
	}
	data, err := m.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	s.c.handle(from, data)
	s.r.reply(from, id, nodeID, nodes)
}

// check compares every view the crawler offers with the reference's.
func (s *stateRun) check(t *testing.T, step int) {
	t.Helper()
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("after step %d: %s differ\ncrawler:   %+v\nreference: %+v", step, what, got, want)
	}
	if got, want := s.c.Stats(), s.r.Stats(); got != want {
		fail("Stats", got, want)
	}
	if got, want := s.c.NATed(), s.r.NATed(); !reflect.DeepEqual(got, want) {
		fail("NATed", got, want)
	}
	if got, want := s.c.ObservedIPs().Sorted(), s.r.addrs(false); !slices.Equal(got, want) {
		fail("ObservedIPs", got, want)
	}
	if got, want := s.c.MultiPortAddrs().Sorted(), s.r.addrs(true); !slices.Equal(got, want) {
		fail("MultiPortAddrs", got, want)
	}
	var queue []netsim.Endpoint
	for _, sl := range s.c.queue[s.c.qhead:] {
		queue = append(queue, s.c.st.endpoint(sl))
	}
	if !slices.Equal(queue, s.r.queue) {
		fail("discovery queues", queue, s.r.queue)
	}
	if !slices.Equal(s.sock.sent, s.r.sent) {
		fail("sent queries", s.sock.sent, s.r.sent)
	}
	if got, want := s.c.InFlight(), len(s.r.pending); got != want {
		fail("in-flight counts", got, want)
	}
	for ep, n := range s.r.perNode {
		if got := outstanding(s.c, ep); got != n {
			fail(fmt.Sprintf("outstanding counts of %v", ep), got, n)
		}
	}
}

func runStateOps(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	s := newStateRun(data[0])
	data = data[1:]
	for step := 0; len(data) > 0; step++ {
		data = data[min(s.step(t, data), len(data)):]
		s.check(t, step)
	}
}

// stateSeeds are hand-written streams that reach every operation: a crawl
// that boots, pumps, discovers multi-port addresses, runs overlapping ping
// rounds, times queries out into eviction and hears late replies.
func stateSeeds() [][]byte {
	return [][]byte{
		{0x00, 8, 3, 0, 0x00, 0x03, 0x21, 0x4a, 0x9b, 3, 3, 3, 4, 3, 3, 5, 0, 0, 0, 0, 1, 0x33, 0, 2, 0x63, 6, 7, 200, 4, 3, 3},
		{0x31, 8, 8, 3, 0, 0x00, 0x03, 0xff, 0x09, 0x11, 3, 3, 0, 0, 0x00, 0x03, 0x01, 0x02, 0x03, 4, 3, 3, 3, 5, 5, 0, 1, 0x70, 0, 2, 0x83, 6, 6, 1, 0, 1, 0, 2, 1, 2, 2, 4, 3, 3},
		{0x4e, 8, 3, 1, 0, 3, 1, 0, 4, 3, 1, 0, 4, 3, 1, 0, 2, 1, 2, 2, 4, 3},
		{0xc2, 8, 3, 0, 0, 0x00, 0x03, 0x08, 0x10, 0x18, 3, 3, 3, 3, 3, 3, 0, 0, 0x10, 0, 7, 255, 4, 3, 3, 3, 5, 0, 0, 0x00, 0, 1, 0x13, 0, 2, 0x23, 7, 10, 6, 4, 3},
		// Streams the fuzzer reduced against broken variants: an
		// out-of-scope sighting counted once, replies kept from an earlier
		// round, and failures that stop counting short of EvictAfter.
		[]byte("110Z001%"),
		[]byte("710Z00010Z1702Z2C00270Z000!"),
		[]byte("010010011070071707"),
		// Two ping rounds whose windows overlap: the first window must
		// score only its own round, leaving the second round's new
		// candidate to collect its replies.
		{0x00, 8, 3, 0, 0, 0x00, 2, 0x01, 0x29, 5, 3, 0, 2, 0x00, 2, 0x42, 0x6a, 5, 6, 0, 4, 0x20, 0, 0, 4, 0x30, 0, 6},
	}
}

// TestCrawlerStateMatchesReference runs the seed streams through
// FuzzCrawlerState's check without the fuzzing engine.
func TestCrawlerStateMatchesReference(t *testing.T) {
	for i, seed := range stateSeeds() {
		t.Run(fmt.Sprint(i), func(t *testing.T) { runStateOps(t, seed) })
	}
}

// FuzzCrawlerState drives random sequences of sightings, enqueues, pumps,
// failures and ping-round replies into the crawler and into refCrawler, the
// map-based bookkeeping the handle table replaced, and requires their
// statistics, NAT observations, address sets, discovery queues and sent
// queries to agree after every operation.
func FuzzCrawlerState(f *testing.F) {
	for _, seed := range stateSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		runStateOps(t, data)
	})
}
