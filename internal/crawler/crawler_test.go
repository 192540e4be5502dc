package crawler

import (
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/dht"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

// swarm is a small simulated DHT world for crawler tests.
type swarm struct {
	clock *netsim.Clock
	net   *netsim.Network
	nodes []*dht.Node
	eps   []netsim.Endpoint
}

func newSwarm(t *testing.T, publicNodes int, loss float64) *swarm {
	t.Helper()
	clock := netsim.NewClock()
	net, err := netsim.NewNetwork(clock, netsim.Config{
		Loss:          loss,
		LatencyBase:   10 * time.Millisecond,
		LatencyJitter: 20 * time.Millisecond,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &swarm{clock: clock, net: net}
	for i := 0; i < publicNodes; i++ {
		addr := iputil.AddrFrom4(10, 1, byte(i/200), byte(i%200+1))
		s.addPublicNode(t, addr, 6881, int64(i+1))
	}
	s.mesh()
	return s
}

func (s *swarm) addPublicNode(t *testing.T, addr iputil.Addr, port uint16, seed int64) *dht.Node {
	t.Helper()
	sock, err := s.net.Listen(netsim.Endpoint{Addr: addr, Port: port})
	if err != nil {
		t.Fatal(err)
	}
	n := dht.NewNode(sock, s.clock, dht.Config{
		PrivateIP:         addr,
		IDSeed:            uint64(seed),
		Seed:              seed,
		KeepaliveInterval: 5 * time.Minute,
	})
	s.nodes = append(s.nodes, n)
	s.eps = append(s.eps, netsim.Endpoint{Addr: addr, Port: port})
	return n
}

// addNATUsers puts k BitTorrent users behind one NAT and returns the public
// address. Users ping a public node so their mappings open and stay open via
// keepalives. Call it after the last addPublicNode: it reads s.nodes[j] as
// the node at s.eps[j].
func (s *swarm) addNATUsers(t *testing.T, pub string, k int, filtering netsim.Filtering) iputil.Addr {
	t.Helper()
	pubAddr := iputil.MustParseAddr(pub)
	nat, err := netsim.NewNAT(s.net, netsim.NATConfig{
		PublicAddr: pubAddr,
		Filtering:  filtering,
		MappingTTL: 30 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		priv := iputil.AddrFrom4(192, 168, 0, byte(i+10))
		sock, err := nat.Listen(priv, 6881)
		if err != nil {
			t.Fatal(err)
		}
		n := dht.NewNode(sock, s.clock, dht.Config{
			PrivateIP:         priv,
			IDSeed:            uint64(1000 + i),
			Seed:              int64(1000 + i),
			KeepaliveInterval: 5 * time.Minute,
		})
		s.nodes = append(s.nodes, n)
		// Join the swarm as core.BuildSwarm does: learn a few public
		// nodes, then ping one of them, which opens the mapping.
		for d := 0; d < 4; d++ {
			j := (i + d) % len(s.eps)
			n.AddNode(infoFor(s.nodes[j], s.eps[j].Addr, s.eps[j].Port))
		}
		n.Ping(s.eps[i%len(s.eps)])
	}
	return pubAddr
}

// mesh links every public node's routing table to a few others so crawls
// can traverse the full swarm.
func (s *swarm) mesh() {
	for i, n := range s.nodes {
		for j := 1; j <= 4; j++ {
			k := (i + j) % len(s.nodes)
			if k == i {
				continue
			}
			n.AddNode(infoFor(s.nodes[k], s.eps[k].Addr, s.eps[k].Port))
		}
	}
}

// infoFor builds the routing-table entry for a node listening at (addr, port).
func infoFor(n *dht.Node, addr iputil.Addr, port uint16) krpc.NodeInfo {
	return krpc.NodeInfo{ID: n.ID(), Addr: addr, Port: port}
}

func (s *swarm) newCrawler(t *testing.T, cfg Config) *Crawler {
	t.Helper()
	sock, err := s.net.Listen(netsim.Endpoint{Addr: iputil.MustParseAddr("172.16.0.1"), Port: 9999})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Bootstrap) == 0 {
		cfg.Bootstrap = []netsim.Endpoint{s.eps[0]}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	return New(sock, s.clock, cfg)
}

func fastConfig() Config {
	return Config{
		Cooldown:      20 * time.Minute,
		PingInterval:  time.Hour,
		PingWindow:    30 * time.Second,
		SweepInterval: time.Hour,
		Tick:          time.Second,
		BatchPerTick:  512,
		QueryTimeout:  5 * time.Second,
	}
}

func TestCrawlerDiscoversSwarm(t *testing.T) {
	s := newSwarm(t, 30, 0)
	c := s.newCrawler(t, fastConfig())
	c.Start()
	s.clock.RunFor(3 * time.Hour)
	c.Stop()
	st := c.Stats()
	if st.UniqueIPs < 25 {
		t.Errorf("discovered %d of 30 IPs", st.UniqueIPs)
	}
	if st.GetNodesSent == 0 || st.GetNodesReplies == 0 {
		t.Errorf("no crawling traffic: %+v", st)
	}
}

func TestCrawlerDetectsNAT(t *testing.T) {
	s := newSwarm(t, 20, 0)
	natAddr := s.addNATUsers(t, "100.64.0.1", 3, netsim.FullCone)
	c := s.newCrawler(t, fastConfig())
	c.Start()
	s.clock.RunFor(8 * time.Hour)
	c.Stop()

	obs := c.NATed()
	if len(obs) != 1 {
		t.Fatalf("NATed = %+v, want exactly the one NAT", obs)
	}
	if obs[0].Addr != natAddr {
		t.Errorf("detected %v, want %v", obs[0].Addr, natAddr)
	}
	if obs[0].Users < 2 || obs[0].Users > 3 {
		t.Errorf("user lower bound = %d, want 2..3", obs[0].Users)
	}
}

func TestCrawlerNoFalsePositiveOnPortChange(t *testing.T) {
	// A single user who changes port must NOT be flagged: after the
	// change, only the new port answers pings (the old one is stale), and
	// one responding port never satisfies the two-reply rule.
	s := newSwarm(t, 12, 0)
	addr := iputil.MustParseAddr("10.5.0.1")
	n := s.addPublicNode(t, addr, 7000, 500)
	// Make the swarm aware of the original port.
	s.nodes[0].AddNode(infoFor(n, addr, 7000))

	c := s.newCrawler(t, fastConfig())
	c.Start()
	s.clock.RunFor(2 * time.Hour)

	// The user restarts their client on a new port with a new node ID.
	n.Close()
	sock, err := s.net.Listen(netsim.Endpoint{Addr: addr, Port: 7001})
	if err != nil {
		t.Fatal(err)
	}
	n2 := dht.NewNode(sock, s.clock, dht.Config{
		PrivateIP: addr, IDSeed: 501, Seed: 501, KeepaliveInterval: 5 * time.Minute,
	})
	s.nodes[0].AddNode(infoFor(n2, addr, 7001))

	s.clock.RunFor(6 * time.Hour)
	c.Stop()
	for _, o := range c.NATed() {
		if o.Addr == addr {
			t.Errorf("port-changing single user flagged as NAT: %+v", o)
		}
	}
	// The crawler must still have noticed both ports (the confound).
	if !c.MultiPortAddrs().Contains(addr) {
		t.Error("crawler should have seen two ports for the restarting user")
	}
}

func TestCrawlerScopeRestriction(t *testing.T) {
	s := newSwarm(t, 20, 0)
	inScope := iputil.MustParsePrefix("10.1.0.0/24")
	cfg := fastConfig()
	cfg.Scope = func(a iputil.Addr) bool { return inScope.Contains(a) }
	c := s.newCrawler(t, cfg)
	c.Start()
	s.clock.RunFor(3 * time.Hour)
	c.Stop()
	for _, a := range c.ObservedIPs().Sorted() {
		if !inScope.Contains(a) {
			t.Errorf("out-of-scope address observed: %v", a)
		}
	}
	if c.Stats().ScopeSuppressed == 0 {
		t.Error("expected suppressed out-of-scope probes")
	}
}

func TestCrawlerCooldown(t *testing.T) {
	s := newSwarm(t, 3, 0)
	cfg := fastConfig()
	cfg.SweepInterval = 10 * time.Minute // sweep more often than cooldown
	c := s.newCrawler(t, cfg)
	c.Start()
	s.clock.RunFor(time.Hour)
	c.Stop()
	st := c.Stats()
	// With a 20-minute cooldown, each of the 3 IPs can be contacted at
	// most 4 times in one hour (t=0ish, 20, 40, 60) via get_nodes.
	maxContacts := int64(3 * 4)
	if st.GetNodesSent > maxContacts+3 {
		t.Errorf("GetNodesSent = %d, cooldown not enforced (max %d)", st.GetNodesSent, maxContacts)
	}
}

func TestCrawlerSurvivesLoss(t *testing.T) {
	s := newSwarm(t, 25, 0.3)
	natAddr := s.addNATUsers(t, "100.64.0.9", 2, netsim.FullCone)
	c := s.newCrawler(t, fastConfig())
	c.Start()
	s.clock.RunFor(24 * time.Hour)
	c.Stop()
	st := c.Stats()
	if st.ResponseRate <= 0.4 || st.ResponseRate >= 0.95 {
		t.Errorf("response rate = %.2f, want lossy-but-working", st.ResponseRate)
	}
	found := false
	for _, o := range c.NATed() {
		if o.Addr == natAddr {
			found = true
		}
	}
	if !found {
		t.Error("NAT missed under 30% loss with hourly rounds")
	}
}

func TestCrawlerAddressRestrictedNATUndercounts(t *testing.T) {
	// Users behind an address-restricted NAT never answer the crawler's
	// unsolicited pings, so the NAT must not be confirmed — the paper's
	// systematic undercounting.
	s := newSwarm(t, 15, 0)
	s.addNATUsers(t, "100.64.0.5", 3, netsim.AddressRestricted)
	c := s.newCrawler(t, fastConfig())
	c.Start()
	s.clock.RunFor(8 * time.Hour)
	c.Stop()
	if len(c.NATed()) != 0 {
		t.Errorf("restricted NAT confirmed: %+v", c.NATed())
	}
}

func TestCrawlerStopIsFinal(t *testing.T) {
	s := newSwarm(t, 5, 0)
	c := s.newCrawler(t, fastConfig())
	c.Start()
	s.clock.RunFor(30 * time.Minute)
	c.Stop()
	sent := c.Stats().MessagesSent
	s.clock.RunFor(4 * time.Hour)
	if got := c.Stats().MessagesSent; got != sent {
		t.Errorf("crawler kept sending after Stop: %d -> %d", sent, got)
	}
	c.Start() // must not restart
	s.clock.RunFor(time.Hour)
	if got := c.Stats().MessagesSent; got != sent {
		t.Error("Start after Stop restarted the crawler")
	}
}

func TestCrawlerDeterminism(t *testing.T) {
	run := func() (Stats, int) {
		s := newSwarm(t, 20, 0.1)
		s.addNATUsers(t, "100.64.0.1", 2, netsim.FullCone)
		c := s.newCrawler(t, fastConfig())
		c.Start()
		s.clock.RunFor(6 * time.Hour)
		c.Stop()
		return c.Stats(), len(c.NATed())
	}
	s1, n1 := run()
	s2, n2 := run()
	if s1 != s2 || n1 != n2 {
		t.Errorf("non-deterministic crawl:\n%+v (%d)\n%+v (%d)", s1, n1, s2, n2)
	}
}

func TestMergeObservations(t *testing.T) {
	a := iputil.MustParseAddr("100.64.0.1")
	b := iputil.MustParseAddr("100.64.0.2")
	t1 := netsim.Epoch.Add(time.Hour)
	t2 := netsim.Epoch.Add(2 * time.Hour)
	g1 := []NATObservation{{Addr: a, Users: 2, PortsSeen: 2, FirstConfirmed: t2}}
	g2 := []NATObservation{
		{Addr: a, Users: 5, PortsSeen: 3, FirstConfirmed: t1},
		{Addr: b, Users: 2, PortsSeen: 2, FirstConfirmed: t2},
	}
	merged := MergeObservations(g1, g2)
	if len(merged) != 2 {
		t.Fatalf("merged = %+v", merged)
	}
	if merged[0].Addr != a || merged[0].Users != 5 || merged[0].PortsSeen != 3 {
		t.Errorf("merged[0] = %+v (want max bounds)", merged[0])
	}
	if !merged[0].FirstConfirmed.Equal(t1) {
		t.Errorf("FirstConfirmed = %v, want earliest", merged[0].FirstConfirmed)
	}
	if merged[1].Addr != b {
		t.Errorf("merged[1] = %+v", merged[1])
	}
	if got := MergeObservations(); len(got) != 0 {
		t.Error("empty merge should be empty")
	}
}

func TestMergeStats(t *testing.T) {
	s1 := Stats{GetNodesSent: 10, GetNodesReplies: 5, PingsSent: 4, PingReplies: 2, SimultaneousMax: 3}
	s2 := Stats{GetNodesSent: 20, GetNodesReplies: 15, PingsSent: 6, PingReplies: 4, SimultaneousMax: 7}
	m := MergeStats(s1, s2)
	if m.MessagesSent != 40 || m.MessagesReceived != 26 {
		t.Errorf("merged traffic = %d/%d", m.MessagesSent, m.MessagesReceived)
	}
	if m.ResponseRate != 26.0/40 {
		t.Errorf("rate = %v", m.ResponseRate)
	}
	if m.SimultaneousMax != 7 {
		t.Errorf("SimultaneousMax = %d", m.SimultaneousMax)
	}
}

func TestTwoVantagesCoverAtLeastAsMuch(t *testing.T) {
	run := func(vantages int) (int, int) {
		s := newSwarm(t, 25, 0.3)
		s.addNATUsers(t, "100.64.0.1", 2, netsim.FullCone)
		var crawlers []*Crawler
		for v := 0; v < vantages; v++ {
			sock, err := s.net.Listen(netsim.Endpoint{Addr: iputil.AddrFrom4(172, 16, byte(v), 1), Port: 9999})
			if err != nil {
				t.Fatal(err)
			}
			cfg := fastConfig()
			cfg.Bootstrap = []netsim.Endpoint{s.eps[0]}
			cfg.Seed = int64(100 + v)
			crawlers = append(crawlers, New(sock, s.clock, cfg))
		}
		for _, c := range crawlers {
			c.Start()
		}
		s.clock.RunFor(6 * time.Hour)
		observed := iputil.NewSet()
		var obs [][]NATObservation
		for _, c := range crawlers {
			c.Stop()
			observed.AddSet(c.ObservedIPs())
			obs = append(obs, c.NATed())
		}
		return observed.Len(), len(MergeObservations(obs...))
	}
	ips1, _ := run(1)
	ips2, nat2 := run(2)
	if ips2 < ips1 {
		t.Errorf("two vantages observed %d IPs < one vantage's %d", ips2, ips1)
	}
	_ = nat2
}

// sendCounter is a netsim.Socket that counts the datagrams sent through it.
type sendCounter struct {
	netsim.Socket
	sent int
}

func (s *sendCounter) Send(to netsim.Endpoint, payload []byte) {
	s.sent++
	s.Socket.Send(to, payload)
}

// TestCrawlerRetainsBoundedTimerHandles re-arms the tick, sweep and ping
// timers thousands of times and checks Stop still holds one handle per
// timer: the live events it cancels, beyond the outstanding queries'
// deadlines, are as many after 6 h as after 1 h. Each of the five handle
// fields (boot, tick, sweep, ping round, ping window) holds at most one
// live event, and tick, sweep and ping round are always armed while the
// crawler runs, so Stop cancels from 3 to 5 of them. After Stop the
// crawler sends nothing.
func TestCrawlerRetainsBoundedTimerHandles(t *testing.T) {
	retained := func(crawl time.Duration) int {
		s := newSwarm(t, 20, 0)
		inner, err := s.net.Listen(netsim.Endpoint{Addr: iputil.MustParseAddr("172.16.0.1"), Port: 9999})
		if err != nil {
			t.Fatal(err)
		}
		sock := &sendCounter{Socket: inner}
		cfg := fastConfig()
		cfg.Bootstrap, cfg.Seed = []netsim.Endpoint{s.eps[0]}, 42
		c := New(sock, s.clock, cfg)
		c.Start()
		s.clock.RunFor(crawl)
		before, deadlines := s.clock.Pending(), inFlight(c.tx)
		c.Stop()
		cancelled := before - s.clock.Pending() - deadlines
		sent := sock.sent
		s.clock.RunFor(time.Hour)
		if sock.sent != sent {
			t.Errorf("after %v: the stopped crawler sent %d datagrams", crawl, sock.sent-sent)
		}
		return cancelled
	}
	short, long := retained(time.Hour), retained(6*time.Hour)
	if short != long || short < 3 || short > 5 {
		t.Errorf("Stop cancelled %d timers after 1 h and %d after 6 h, want the same count, from 3 to 5", short, long)
	}
}

// seenPorts returns how many ports the crawler has seen at a.
func seenPorts(c *Crawler, a iputil.Addr) int {
	h, ok := c.st.index[a]
	if !ok {
		return 0
	}
	return int(c.st.ports[h].seen)
}

// isEvicted reports whether ep has left the discovery frontier.
func isEvicted(c *Crawler, ep netsim.Endpoint) bool {
	s, ok := c.st.lookup(ep)
	return ok && c.st.slots[s].flags&slotEvicted != 0
}
