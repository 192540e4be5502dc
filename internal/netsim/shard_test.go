package netsim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

// shardScript runs a deterministic ping-pong workload over a sharded fabric
// and returns one delivery transcript per endpoint: a small mesh of echo
// nodes spread across /16 blocks (so they land on different shards), each
// pinging every other node a few times. A transcript captures the delivery
// time, order and payload bytes at its node, so any nondeterminism in the
// barrier protocol shows up. Each transcript is written only by the shard
// that owns its endpoint; the order of deliveries on different shards
// inside one window is not part of the ShardGroup contract, and a single
// shared log would race on it.
func shardScript(t *testing.T, shards, workers int, seed int64) [][]string {
	t.Helper()
	g, err := NewShardGroup(shards, workers, Config{
		Loss:          0.1,
		LatencyBase:   20 * time.Millisecond,
		LatencyJitter: 30 * time.Millisecond,
		Seed:          seed,
	})
	if err != nil {
		t.Fatalf("NewShardGroup: %v", err)
	}

	// One endpoint per /16 block 0..7, so with 4 shards each shard owns two.
	var eps []Endpoint
	for b := 0; b < 8; b++ {
		eps = append(eps, Endpoint{Addr: iputil.Addr(uint32(b)<<16 | 10), Port: 7000})
	}
	logs := make([][]string, len(eps))
	socks := make([]Socket, len(eps))
	for i, ep := range eps {
		sh := g.ShardFor(ep.Addr)
		s, err := sh.Net.Listen(ep)
		if err != nil {
			t.Fatalf("Listen %s: %v", ep, err)
		}
		i := i
		s.SetHandler(func(from Endpoint, payload []byte) {
			logs[i] = append(logs[i], fmt.Sprintf("%s n%d<-%s %q",
				sh.Clock.Now().Format("15:04:05.000"), i, from, payload))
			// Echo once so traffic keeps crossing shard boundaries.
			if len(payload) < 12 {
				socks[i].Send(from, append([]byte("re:"), payload...))
			}
		})
		socks[i] = s
	}
	for i, s := range socks {
		for j := range eps {
			if i == j {
				continue
			}
			s.Send(eps[j], []byte(fmt.Sprintf("p%d-%d", i, j)))
		}
	}
	g.RunFor(2 * time.Second)
	if got, want := g.Now(), Epoch.Add(2*time.Second); !got.Equal(want) {
		t.Fatalf("group time = %v, want %v", got, want)
	}
	for _, sh := range g.Shards() {
		if !sh.Clock.Now().Equal(g.Now()) {
			t.Fatalf("shard clock %v out of lockstep with group %v", sh.Clock.Now(), g.Now())
		}
	}
	return logs
}

// requireSameTranscripts asserts that every endpoint received exactly the
// deliveries, at the same times and in the same order, that it received in
// the reference run, and that the totals match.
func requireSameTranscripts(t *testing.T, label string, got, want [][]string) {
	t.Helper()
	if g, w := deliveries(got), deliveries(want); g != w {
		t.Fatalf("%s: %d deliveries, want %d", label, g, w)
	}
	for n := range want {
		if len(got[n]) != len(want[n]) {
			t.Fatalf("%s: node %d got %d deliveries, want %d", label, n, len(got[n]), len(want[n]))
		}
		for i := range want[n] {
			if got[n][i] != want[n][i] {
				t.Fatalf("%s: node %d transcript diverges at %d:\n got %s\nwant %s",
					label, n, i, got[n][i], want[n][i])
			}
		}
	}
}

// deliveries counts the deliveries across all transcripts.
func deliveries(logs [][]string) int {
	n := 0
	for _, l := range logs {
		n += len(l)
	}
	return n
}

// TestShardGroupDeterministic pins that a sharded run is a pure function of
// (seed, shard count): repeated runs and different worker counts must produce
// identical delivery transcripts.
func TestShardGroupDeterministic(t *testing.T) {
	base := shardScript(t, 4, 1, 42)
	if deliveries(base) == 0 {
		t.Fatal("workload produced no deliveries")
	}
	// Each shard owns two of the eight nodes, so node 0 hearing from more
	// than one peer proves traffic crossed a shard boundary.
	senders := map[string]bool{}
	for _, line := range base[0] {
		senders[strings.Fields(line)[1]] = true
	}
	if len(senders) < 2 {
		t.Fatalf("no cross-shard traffic observed: node 0 heard from %v", senders)
	}
	for _, workers := range []int{2, 4, 8} {
		requireSameTranscripts(t, fmt.Sprintf("workers=%d", workers), shardScript(t, 4, workers, 42), base)
	}
}

// TestShardGroupGOMAXPROCSInvariance pins scheduling invariance the hard
// way: the same sharded run under GOMAXPROCS=1 and the test default.
func TestShardGroupGOMAXPROCSInvariance(t *testing.T) {
	base := shardScript(t, 4, 4, 7)
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	requireSameTranscripts(t, "GOMAXPROCS=1", shardScript(t, 4, 4, 7), base)
}

// TestShardGroupLookaheadSafety drives zero-jitter traffic timed exactly on
// window boundaries: a send fired by an event at the barrier instant must
// still arrive (delivery lands in a later window, never lost between them).
func TestShardGroupLookaheadSafety(t *testing.T) {
	const lat = 10 * time.Millisecond
	g, err := NewShardGroup(2, 1, Config{LatencyBase: lat, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := Endpoint{Addr: iputil.Addr(0x0000000a), Port: 1} // shard 0
	b := Endpoint{Addr: iputil.Addr(0x0001000a), Port: 1} // shard 1
	sa, err := g.ShardFor(a.Addr).Net.Listen(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := g.ShardFor(b.Addr).Net.Listen(b)
	if err != nil {
		t.Fatal(err)
	}
	hops := 0
	sa.SetHandler(func(from Endpoint, payload []byte) {
		hops++
		sa.Send(from, payload)
	})
	sb.SetHandler(func(from Endpoint, payload []byte) {
		hops++
		sb.Send(from, payload)
	})
	sa.Send(b, []byte("x"))
	g.RunFor(time.Second)
	// With zero jitter every hop takes exactly lat, each landing precisely
	// on a window barrier: 1s/10ms = 100 deliveries.
	if want := int(time.Second / lat); hops != want {
		t.Fatalf("observed %d hops, want %d (barrier-instant sends lost?)", hops, want)
	}
}

// TestShardGroupDeadAirJump checks the cursor jumps over empty stretches:
// a single timer far in the future must not cost O(horizon/lookahead) windows.
func TestShardGroupDeadAirJump(t *testing.T) {
	g, err := NewShardGroup(2, 1, Config{LatencyBase: time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	g.Shards()[1].Clock.After(23*time.Hour+time.Millisecond, func() { fired = true })
	start := time.Now()
	g.RunFor(24 * time.Hour)
	if !fired {
		t.Fatal("far-future timer did not fire")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("dead-air run took %v — cursor jumping broken", elapsed)
	}
	if !g.Now().Equal(Epoch.Add(24 * time.Hour)) {
		t.Fatalf("group time %v, want %v", g.Now(), Epoch.Add(24*time.Hour))
	}
}

// TestShardGroupRejects pins the configurations sharding must refuse.
func TestShardGroupRejects(t *testing.T) {
	if _, err := NewShardGroup(2, 1, Config{Seed: 1}); err == nil {
		t.Fatal("zero LatencyBase accepted")
	}
	hook := func(from, to Endpoint, p []byte) []byte { return p }
	if _, err := NewShardGroup(2, 1, Config{LatencyBase: time.Millisecond, FaultSend: hook}); err == nil {
		t.Fatal("FaultSend accepted on sharded fabric")
	}
	if _, err := NewShardGroup(2, 1, Config{LatencyBase: time.Millisecond, FaultDeliver: hook}); err == nil {
		t.Fatal("FaultDeliver accepted on sharded fabric")
	}
	if _, err := NewShardGroup(0, 1, Config{LatencyBase: time.Millisecond}); err == nil {
		t.Fatal("zero shards accepted")
	}
}

// TestShardGroupNATCrossShard checks NAT traversal works across the shard
// boundary: a NATed host on shard 0 talks to a public node on shard 1 and
// gets replies back through its mapping.
func TestShardGroupNATCrossShard(t *testing.T) {
	g, err := NewShardGroup(2, 1, Config{LatencyBase: 5 * time.Millisecond, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gwAddr := iputil.Addr(0x0002000a)                         // /16 block 2 -> shard 0
	pubEP := Endpoint{Addr: iputil.Addr(0x0001000a), Port: 9} // block 1 -> shard 1
	natShard := g.ShardFor(gwAddr)
	nat, err := NewNAT(natShard.Net, NATConfig{PublicAddr: gwAddr})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := nat.Listen(iputil.Addr(0xc0a80101), 5000)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := g.ShardFor(pubEP.Addr).Net.Listen(pubEP)
	if err != nil {
		t.Fatal(err)
	}
	var atPub, atInner int
	pub.SetHandler(func(from Endpoint, payload []byte) {
		atPub++
		if from.Addr != gwAddr {
			t.Errorf("public node saw source %s, want NAT public addr %s", from.Addr, gwAddr)
		}
		pub.Send(from, []byte("pong"))
	})
	inner.SetHandler(func(from Endpoint, payload []byte) { atInner++ })
	inner.Send(pubEP, []byte("ping"))
	g.RunFor(time.Second)
	if atPub != 1 || atInner != 1 {
		t.Fatalf("pub=%d inner=%d deliveries, want 1 and 1", atPub, atInner)
	}
}

// TestShardGroupStats checks the cross-shard counter roll-up: every shard's
// sent/delivered/dropped totals must appear in the group sum, and a lossy
// fabric must show both deliveries and drops.
func TestShardGroupStats(t *testing.T) {
	g, err := NewShardGroup(4, 1, Config{
		Loss:        0.3,
		LatencyBase: 10 * time.Millisecond,
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	var socks []Socket
	var eps []Endpoint
	for b := 0; b < 4; b++ {
		ep := Endpoint{Addr: iputil.Addr(uint32(b)<<16 | 1), Port: 9000}
		s, err := g.ShardFor(ep.Addr).Net.Listen(ep)
		if err != nil {
			t.Fatal(err)
		}
		s.SetHandler(func(Endpoint, []byte) {})
		socks = append(socks, s)
		eps = append(eps, ep)
	}
	for i, s := range socks {
		for j := range eps {
			if i == j {
				continue
			}
			for k := 0; k < 20; k++ {
				s.Send(eps[j], []byte{byte(k)})
			}
		}
	}
	g.RunFor(time.Second)
	st := g.Stats()
	if st.Sent != 4*3*20 {
		t.Errorf("Sent = %d, want %d", st.Sent, 4*3*20)
	}
	if st.Delivered == 0 || st.Dropped == 0 {
		t.Errorf("lossy fabric stats look wrong: %+v", st)
	}
	if st.Delivered+st.Dropped+st.NoRoute != st.Sent {
		t.Errorf("counters do not add up: %+v", st)
	}
	var manual Stats
	for _, sh := range g.Shards() {
		s := sh.Net.Stats()
		manual.Sent += s.Sent
		manual.Delivered += s.Delivered
		manual.Dropped += s.Dropped
		manual.NoRoute += s.NoRoute
		manual.FaultDropped += s.FaultDropped
	}
	if manual != st {
		t.Errorf("group Stats %+v != per-shard sum %+v", st, manual)
	}
}
