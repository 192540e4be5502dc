package crawler

import (
	"strings"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/dht"
	"github.com/reuseblock/reuseblock/internal/faults"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

// TestRetriesRecoverLoss crawls a very lossy fabric with and without
// retries: retransmissions must recover a substantial share of the replies
// that single-shot queries lose.
func TestRetriesRecoverLoss(t *testing.T) {
	run := func(retries int) Stats {
		s := newSwarm(t, 30, 0.6)
		c := s.newCrawler(t, Config{
			Bootstrap:  []netsim.Endpoint{s.eps[0], s.eps[1], s.eps[2], s.eps[3]},
			Seed:       3,
			MaxRetries: retries,
			RetryBase:  500 * time.Millisecond,
			Cooldown:   5 * time.Minute,
		})
		c.Start()
		s.clock.RunFor(4 * time.Hour)
		c.Stop()
		return c.Stats()
	}
	plain := run(0)
	retried := run(3)
	if plain.Retries != 0 {
		t.Fatalf("MaxRetries=0 still retried %d times", plain.Retries)
	}
	if retried.Retries == 0 {
		t.Fatal("MaxRetries=3 never retried on a 60%-loss fabric")
	}
	if retried.ResponseRate <= plain.ResponseRate {
		t.Fatalf("retries did not improve response rate: %.3f vs %.3f",
			retried.ResponseRate, plain.ResponseRate)
	}
	if retried.UniqueIPs < plain.UniqueIPs {
		t.Fatalf("retries shrank coverage: %d vs %d IPs", retried.UniqueIPs, plain.UniqueIPs)
	}
}

// TestLateReplies makes the network slower than the query timeout: every
// reply arrives after its query was scored a timeout, and each one must be
// counted and logged as late rather than silently ignored.
func TestLateReplies(t *testing.T) {
	clock := netsim.NewClock()
	net, err := netsim.NewNetwork(clock, netsim.Config{
		LatencyBase: 80 * time.Millisecond,
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	ep := netsim.Endpoint{Addr: iputil.MustParseAddr("10.0.0.1"), Port: 6881}
	sock, err := net.Listen(ep)
	if err != nil {
		t.Fatal(err)
	}
	dht.NewNode(sock, clock, dht.Config{PrivateIP: ep.Addr, IDSeed: 1, Seed: 1})

	var log strings.Builder
	csock, err := net.Listen(netsim.Endpoint{Addr: iputil.MustParseAddr("172.16.0.1"), Port: 9999})
	if err != nil {
		t.Fatal(err)
	}
	c := New(csock, clock, Config{
		Bootstrap:    []netsim.Endpoint{ep},
		Seed:         5,
		QueryTimeout: 100 * time.Millisecond, // round trip takes 160ms
		EventLog:     &log,
	})
	c.Start()
	clock.RunFor(10 * time.Minute)
	c.Stop()
	st := c.Stats()
	if st.LateReplies == 0 {
		t.Fatal("no late replies counted on a fabric slower than the timeout")
	}
	if st.Timeouts < st.LateReplies {
		t.Fatalf("every late reply follows a timeout: timeouts=%d late=%d", st.Timeouts, st.LateReplies)
	}
	if st.GetNodesReplies != 0 || st.PingReplies != 0 {
		t.Fatalf("replies past the deadline must not count as on-time: %+v", st)
	}
	if !strings.Contains(log.String(), string(EvLateRx)) {
		t.Fatal("late replies were not logged")
	}
	events, err := ParseLog(strings.NewReader(log.String()))
	if err != nil {
		t.Fatalf("log with late-rx lines failed to parse: %v", err)
	}
	Replay(events, 30*time.Second) // must not choke on the new kind
}

// TestEviction points the crawler at one live and one dead bootstrap: the
// dead endpoint must leave the frontier after EvictAfter failed queries
// while the live swarm keeps being crawled.
func TestEviction(t *testing.T) {
	s := newSwarm(t, 20, 0)
	dead := netsim.Endpoint{Addr: iputil.MustParseAddr("10.9.9.9"), Port: 6881}
	c := s.newCrawler(t, Config{
		Bootstrap:  []netsim.Endpoint{s.eps[0], dead},
		Seed:       3,
		EvictAfter: 2,
		Cooldown:   time.Minute,
	})
	c.Start()
	s.clock.RunFor(3 * time.Hour)
	c.Stop()
	st := c.Stats()
	if st.Evicted == 0 {
		t.Fatal("dead endpoint was never evicted")
	}
	if !isEvicted(c, dead) {
		t.Fatal("evicted some endpoint, but not the dead bootstrap")
	}
	if st.UniqueIPs < 20 {
		t.Fatalf("eviction hurt live coverage: %d IPs", st.UniqueIPs)
	}
	// The sweeps after eviction must stop re-enqueueing the dead endpoint,
	// bounding wasted traffic: with sweeps every hour and eviction after 2
	// failures, far fewer timeouts than sweeps*cooldowns can occur.
	if st.Timeouts > 20 {
		t.Fatalf("evicted endpoint kept being queried: %d timeouts", st.Timeouts)
	}
}

// TestCrawlerSurvivesCorruption injects heavy reply corruption — truncated
// datagrams, bit flips, compact node lists with bad lengths — and checks the
// crawler neither crashes nor corrupts its accounting.
func TestCrawlerSurvivesCorruption(t *testing.T) {
	clock := netsim.NewClock()
	scn := &faults.Scenario{Corruption: &faults.Corruption{Prob: 0.5}}
	inj, err := faults.NewInjector(scn, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := netsim.Config{
		LatencyBase:   10 * time.Millisecond,
		LatencyJitter: 20 * time.Millisecond,
		Seed:          7,
	}
	inj.Install(&cfg)
	net, err := netsim.NewNetwork(clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &swarm{clock: clock, net: net}
	for i := 0; i < 30; i++ {
		s.addPublicNode(t, iputil.AddrFrom4(10, 1, 0, byte(i+1)), 6881, int64(i+1))
	}
	s.mesh()
	c := s.newCrawler(t, Config{Seed: 3, MaxRetries: 2})
	c.Start()
	s.clock.RunFor(2 * time.Hour)
	c.Stop()
	st := c.Stats()
	if inj.Stats().Corrupted == 0 {
		t.Fatal("injector corrupted nothing; test proves nothing")
	}
	if st.UniqueIPs < 10 {
		t.Fatalf("crawler found only %d/30 IPs under 50%% corruption", st.UniqueIPs)
	}
	if st.GetNodesReplies+st.PingReplies > st.GetNodesSent+st.PingsSent {
		t.Fatalf("more replies than queries: %+v", st)
	}
	observed := c.ObservedIPs()
	if observed.Len() != st.UniqueIPs {
		t.Fatalf("%d observed addresses, but Stats counts %d", observed.Len(), st.UniqueIPs)
	}
	for _, addr := range observed.Sorted() {
		if seenPorts(c, addr) == 0 {
			t.Fatalf("ip record %v has no ports", addr)
		}
	}
}

// TestRetryDeterminism runs the same lossy crawl twice with retries and
// eviction enabled; every statistic must match exactly.
func TestRetryDeterminism(t *testing.T) {
	run := func() Stats {
		s := newSwarm(t, 30, 0.5)
		c := s.newCrawler(t, Config{Seed: 3, MaxRetries: 2, EvictAfter: 3})
		c.Start()
		s.clock.RunFor(time.Hour)
		c.Stop()
		return c.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("retry-enabled crawl diverged:\n%+v\n%+v", a, b)
	}
	if a.Retries == 0 {
		t.Fatal("expected retries on a 50%-loss fabric")
	}
}
