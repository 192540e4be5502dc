package netsim_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/faults"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

// invarianceRun is the outcome of one run of the invariance workload: one
// delivery transcript per host plus the fabric and injector counters.
type invarianceRun struct {
	logs   [][]string
	net    netsim.Stats
	faults faults.Stats
}

// runInvariance drives a KRPC workload over ShardGroup(shards, workers):
// public hosts spread over 12 /16 blocks and two NAT gateways with two
// hosts each. Every host pings a rotating peer on a shared 100 ms tick, so
// with zero jitter many timers and deliveries fall on the same instants;
// every query is answered with a find_node response carrying two nodes.
// A transcript line records the delivery's time to the nanosecond, its
// source and its payload bytes, and is written only by the shard owning
// the host.
func runInvariance(t *testing.T, shards, workers int, jitter time.Duration, scn *faults.Scenario) invarianceRun {
	t.Helper()
	cfg := netsim.Config{
		Loss:          0.1,
		LatencyBase:   20 * time.Millisecond,
		LatencyJitter: jitter,
		Seed:          42,
	}
	inj, err := faults.NewInjector(scn, 7)
	if err != nil {
		t.Fatal(err)
	}
	inj.Install(&cfg)
	g, err := netsim.NewShardGroup(shards, workers, cfg)
	if err != nil {
		t.Fatal(err)
	}

	type host struct {
		sock  netsim.Socket
		clock *netsim.Clock
	}
	var hosts []host
	var public []netsim.Endpoint
	for b := 0; b < 12; b++ {
		ep := netsim.Endpoint{Addr: iputil.Addr(uint32(b)<<16 | 10), Port: 7000}
		sh := g.ShardFor(ep.Addr)
		s, err := sh.Net.Listen(ep)
		if err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, host{s, sh.Clock})
		public = append(public, ep)
	}
	for b := 12; b < 14; b++ {
		gw := iputil.Addr(uint32(b)<<16 | 1)
		sh := g.ShardFor(gw)
		nat, err := netsim.NewNAT(sh.Net, netsim.NATConfig{PublicAddr: gw, Filtering: netsim.Filtering(b % 2)})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			s, err := nat.Listen(iputil.AddrFrom4(192, 168, 0, byte(k+1)), 6881)
			if err != nil {
				t.Fatal(err)
			}
			hosts = append(hosts, host{s, sh.Clock})
		}
	}

	var id krpc.NodeID
	nodes := []krpc.NodeInfo{{Addr: public[0].Addr, Port: 1}, {Addr: public[1].Addr, Port: 2}}
	reply, err := krpc.NewFindNodeResponse("tx", id, nodes, "RB01").Marshal()
	if err != nil {
		t.Fatal(err)
	}
	logs := make([][]string, len(hosts))
	const horizon = 5 * time.Second
	for i, h := range hosts {
		i, h := i, h
		h.sock.SetHandler(func(from netsim.Endpoint, payload []byte) {
			logs[i] = append(logs[i], fmt.Sprintf("%d %s %x", h.clock.Now().Sub(netsim.Epoch), from, payload))
			if m, err := krpc.Unmarshal(payload); err == nil && m.Kind == krpc.KindQuery {
				h.sock.Send(from, reply)
			}
		})
		round := 0
		var tick func()
		tick = func() {
			round++
			ping, err := krpc.NewPing(fmt.Sprintf("%d.%d", i, round), id).Marshal()
			if err != nil {
				t.Error(err)
				return
			}
			h.sock.Send(public[(i+round)%len(public)], ping)
			if h.clock.Now().Sub(netsim.Epoch) < horizon {
				h.clock.After(100*time.Millisecond, tick)
			}
		}
		h.clock.After(100*time.Millisecond, tick)
	}
	// Two calls, so a run also crosses a RunFor boundary mid-traffic.
	g.RunFor(horizon / 2)
	g.RunFor(horizon)
	for _, sh := range g.Shards() {
		if !sh.Clock.Now().Equal(g.Now()) {
			t.Fatalf("shard clock %v out of lockstep with group %v", sh.Clock.Now(), g.Now())
		}
	}
	return invarianceRun{logs: logs, net: g.Stats(), faults: inj.Stats()}
}

// requireSameRun asserts that every host received exactly the deliveries,
// at the same times and in the same order, that it received in the
// reference run, and that the counters match.
func requireSameRun(t *testing.T, label string, got, want invarianceRun) {
	t.Helper()
	if got.net != want.net || got.faults != want.faults {
		t.Fatalf("%s: counters %+v %+v, want %+v %+v", label, got.net, got.faults, want.net, want.faults)
	}
	for n := range want.logs {
		if len(got.logs[n]) != len(want.logs[n]) {
			t.Fatalf("%s: host %d got %d deliveries, want %d", label, n, len(got.logs[n]), len(want.logs[n]))
		}
		for i := range want.logs[n] {
			if got.logs[n][i] != want.logs[n][i] {
				t.Fatalf("%s: host %d transcript diverges at %d:\n got %s\nwant %s",
					label, n, i, got.logs[n][i], want.logs[n][i])
			}
		}
	}
}

// invarianceScenarios installs each wire-level fault mechanism on its own,
// then all of them at once.
var invarianceScenarios = []*faults.Scenario{
	nil,
	{Name: "bursty", Gilbert: &faults.GilbertElliott{PGoodBad: 0.1, PBadGood: 0.3, LossGood: 0.02, LossBad: 0.8}},
	{Name: "blackout", Blackouts: []faults.Blackout{{Start: time.Second, End: 3 * time.Second, FracOf24s: 0.4}}},
	{Name: "ratelimit", RateLimit: &faults.RateLimit{RatePerSec: 2, Burst: 3, QueriesOnly: true}},
	{Name: "corrupt", Corruption: &faults.Corruption{Prob: 0.3}},
	{Name: "all", Gilbert: &faults.GilbertElliott{PGoodBad: 0.05, PBadGood: 0.4, LossGood: 0.01, LossBad: 0.6},
		Blackouts:  []faults.Blackout{{Start: 2 * time.Second, End: 3 * time.Second, FracOf24s: 0.3}},
		RateLimit:  &faults.RateLimit{RatePerSec: 4, Burst: 5},
		Corruption: &faults.Corruption{Prob: 0.1}},
}

// TestShardGroupInvariance pins that a fabric's output does not depend on
// how it is sharded: for N in {2, 4, 8} shards and 1 or 4 workers, every
// host's delivery transcript and every counter equal the one-shard run's —
// at the swarm's jitter and at zero jitter (where same-instant ties are
// common), fault-free and under each wire-level fault mechanism. Run it
// under -race: with 4 workers the shards execute concurrently.
func TestShardGroupInvariance(t *testing.T) {
	for _, jitter := range []time.Duration{60 * time.Millisecond, 0} {
		for _, scn := range invarianceScenarios {
			name := "fault-free"
			if scn != nil {
				name = scn.Name
			}
			t.Run(fmt.Sprintf("jitter=%v/%s", jitter, name), func(t *testing.T) {
				want := runInvariance(t, 1, 1, jitter, scn)
				if want.net.Delivered == 0 || want.net.Sent < 500 {
					t.Fatalf("workload too small: %+v", want.net)
				}
				if scn != nil && want.faults == (faults.Stats{}) {
					t.Fatalf("scenario %s injected nothing", name)
				}
				for _, shards := range []int{2, 4, 8} {
					for _, workers := range []int{1, 4} {
						got := runInvariance(t, shards, workers, jitter, scn)
						requireSameRun(t, fmt.Sprintf("shards=%d workers=%d", shards, workers), got, want)
					}
				}
			})
		}
	}
}

// TestShardGroupGOMAXPROCSInvariance pins scheduling invariance the hard
// way: a concurrent sharded run under GOMAXPROCS=1 against the one-shard
// reference.
func TestShardGroupGOMAXPROCSInvariance(t *testing.T) {
	scn := invarianceScenarios[len(invarianceScenarios)-1]
	want := runInvariance(t, 1, 1, 0, scn)
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	requireSameRun(t, "GOMAXPROCS=1", runInvariance(t, 4, 4, 0, scn), want)
}
