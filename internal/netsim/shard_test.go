package netsim

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

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

// TestShardGroupRingOnlyShard runs a shard whose queue holds only ring
// timers: three hosts on keepalive-like timers of one delay, which send to a
// host on the other shard and receive nothing. The windows must open at
// those timers, as they do at heap events, so every keepalive fires and
// arrives at the instant it does on a one-shard fabric.
func TestShardGroupRingOnlyShard(t *testing.T) {
	const lat, keepalive = 10 * time.Millisecond, 1500 * time.Millisecond
	run := func(shards int) (fires, arrivals []string) {
		g, err := NewShardGroup(shards, 1, Config{LatencyBase: lat, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		b := Endpoint{Addr: 0x0001000a, Port: 1} // shard 1 of 2
		sb, err := g.ShardFor(b.Addr).Net.Listen(b)
		if err != nil {
			t.Fatal(err)
		}
		bClock := g.ShardFor(b.Addr).Clock
		sb.SetHandler(func(from Endpoint, p []byte) {
			arrivals = append(arrivals, fmt.Sprintf("%v %v %s", bClock.Now().Sub(Epoch), from, p))
		})
		var ringOnly *Clock
		for i := 0; i < 3; i++ {
			a := Endpoint{Addr: 0x0000000a + iputil.Addr(i), Port: 1} // shard 0
			sa, err := g.ShardFor(a.Addr).Net.Listen(a)
			if err != nil {
				t.Fatal(err)
			}
			clock := g.ShardFor(a.Addr).Clock
			ringOnly = clock
			var tick fn
			tick = func() {
				fires = append(fires, fmt.Sprintf("%v %v", clock.Now().Sub(Epoch), a))
				sa.Send(b, fmt.Appendf(nil, "%v", a))
				clock.AfterEvent(keepalive, tick, 0)
			}
			clock.AfterEvent(time.Duration(i+1)*333*time.Millisecond, tick, 0) // a one-off start
		}
		g.RunFor(4 * time.Second)
		g.RunFor(7 * time.Second)
		if shards > 1 && (len(ringOnly.heap) != 0 || ringOnly.nrings != 1) {
			t.Fatalf("keepalive shard holds %d heap entries and %d rings, want only one ring", len(ringOnly.heap), ringOnly.nrings)
		}
		return fires, arrivals
	}
	wantFires, wantArrivals := run(1)
	if len(wantFires) < 18 || len(wantArrivals) != len(wantFires) {
		t.Fatalf("one shard: %d fires, %d arrivals", len(wantFires), len(wantArrivals))
	}
	fires, arrivals := run(2)
	if !slices.Equal(fires, wantFires) {
		t.Fatalf("two shards fired\n%v\nwant\n%v", fires, wantFires)
	}
	if !slices.Equal(arrivals, wantArrivals) {
		t.Fatalf("two shards delivered\n%v\nwant\n%v", arrivals, wantArrivals)
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
	g.Shards()[1].Clock.AfterEvent(23*time.Hour+time.Millisecond, fn(func() { fired = true }), 0)
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
	if _, err := NewShardGroup(0, 1, Config{LatencyBase: time.Millisecond}); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := NewShardGroup(1, 1, Config{}); err != nil {
		t.Fatalf("one shard needs no lookahead: %v", err)
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

// TestShardGroupQuietWindowAllocs pins the per-window cost of the sharded
// loop: when only one shard has work due, a window runs inline and
// allocates nothing beyond the datagram's payload copy — no goroutines, no
// channel. Traffic due on both shards inside one window is what makes a
// window run concurrently.
func TestShardGroupQuietWindowAllocs(t *testing.T) {
	const lat = 10 * time.Millisecond
	g, err := NewShardGroup(2, 2, Config{LatencyBase: lat, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pingPong := func(a, b Endpoint) {
		t.Helper()
		var socks [2]Socket
		for i, ep := range []Endpoint{a, b} {
			s, err := g.ShardFor(ep.Addr).Net.Listen(ep)
			if err != nil {
				t.Fatal(err)
			}
			s.SetHandler(func(from Endpoint, payload []byte) { s.Send(from, payload) })
			socks[i] = s
		}
		socks[0].Send(b, []byte("x"))
	}
	// Both endpoints on shard 0: every window has work on one shard only.
	pingPong(Endpoint{Addr: iputil.Addr(0x0000000a), Port: 1}, Endpoint{Addr: iputil.Addr(0x0000000b), Port: 1})
	g.RunFor(time.Second) // warm the event pool and the busy list

	const runs = 5
	windows0, _ := g.Windows()
	sent0 := g.Stats().Sent
	allocs := testing.AllocsPerRun(runs, func() { g.RunFor(time.Second) })
	windows, concurrent := g.Windows()
	perRun := float64(windows-windows0) / (runs + 1)
	sendsPerRun := float64(g.Stats().Sent-sent0) / (runs + 1)
	if perRun < 100 {
		t.Fatalf("%.0f windows per run, want at least 100", perRun)
	}
	// Each hop is one send, and a send copies its payload.
	if extra := allocs - sendsPerRun; extra > 0 {
		t.Errorf("%.0f allocations per run beyond %.0f payload copies over %.0f windows, want 0",
			extra, sendsPerRun, perRun)
	}
	if concurrent != 0 {
		t.Errorf("%d windows ran concurrently with work on one shard only", concurrent)
	}

	// A second conversation on shard 1 puts work on both shards in one window.
	pingPong(Endpoint{Addr: iputil.Addr(0x0001000a), Port: 1}, Endpoint{Addr: iputil.Addr(0x0001000b), Port: 1})
	g.RunFor(time.Second)
	if _, concurrent := g.Windows(); concurrent == 0 {
		t.Error("no window ran concurrently with work due on both shards")
	}
}
