// Package core orchestrates the full reproduction: generate a synthetic
// world (blgen), instantiate its BitTorrent population as live DHT nodes on
// the simulated network (netsim/dht), run the paper's crawler against it,
// run the RIPE dynamic-address pipeline and the Cai et al. ICMP baseline,
// join everything with the blocklist feeds, and render every table and
// figure of the paper as a Report.
package core

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/crawler"
	"github.com/reuseblock/reuseblock/internal/dht"
	"github.com/reuseblock/reuseblock/internal/faults"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

// Swarm is the instantiated BitTorrent population.
type Swarm struct {
	// Group is the simulated fabric: one event loop per shard, one shard
	// per shard worker unless SwarmConfig.Shards says otherwise. Its output
	// is the same for any shard count; use RunFor / Listen / ClockAt /
	// NetStats.
	Group     *netsim.ShardGroup
	Nodes     []*dht.Node
	Endpoints []netsim.Endpoint // public endpoints known at build time
	NATs      map[iputil.Addr]*netsim.NAT
	// Bootstrap is the crawler's entry point: a public node inside the
	// blocklisted address space when possible, exempt from client churn.
	Bootstrap netsim.Endpoint
	// Injector is the wire-level fault injector, nil on fault-free swarms.
	// Its Stats sum the counters of every shard.
	Injector *faults.Injector

	arenas   []dht.NodeArena // node storage, one arena per shard
	faulty   bool            // built under a fault scenario (SwarmConfig.Faults)
	restarts []restart       // scheduled client restarts, indexed by timer argument
}

// restart is one scheduled client restart: user j rebinds under seed.
type restart struct {
	j    int
	seed int64
}

// swarmRestarts is a Swarm as the target of its restart timers, which keeps
// Fire out of Swarm's method set. A timer's argument indexes s.restarts.
type swarmRestarts Swarm

// newNode allocates a node from the arena of the shard owning addr, so
// restarts firing concurrently on different shards never share an arena.
func (s *Swarm) newNode(addr iputil.Addr, sock netsim.Socket, cfg dht.Config) *dht.Node {
	sh := s.Group.ShardFor(addr)
	return s.arenas[sh.Index()].NewNode(sock, sh.Clock, cfg)
}

// RunFor advances the swarm's virtual time by d across all shards.
func (s *Swarm) RunFor(d time.Duration) { s.Group.RunFor(d) }

// Now returns the swarm's virtual time.
func (s *Swarm) Now() time.Time { return s.Group.Now() }

// Listen binds a public endpoint on whichever fabric slice owns its address.
func (s *Swarm) Listen(ep netsim.Endpoint) (netsim.Socket, error) {
	return s.Group.ShardFor(ep.Addr).Net.Listen(ep)
}

// ClockAt returns the clock owning addr; components living at a fixed
// address (such as a crawler) must schedule on their own shard's clock.
func (s *Swarm) ClockAt(a iputil.Addr) *netsim.Clock { return s.Group.ShardFor(a).Clock }

// NetStats sums fabric traffic counters across shards.
func (s *Swarm) NetStats() netsim.Stats { return s.Group.Stats() }

// StartCrawler brings up crawler vantage v on the swarm: it binds the
// vantage socket at 198.18.v.1:9999 (198.18.0.0/15 is benchmarking space —
// our measurement hosts), points the crawler at the swarm's bootstrap, lets
// NATed users' mappings open for one simulated minute, and starts the crawl.
// On a swarm built under a fault scenario the crawler also gets the
// resilience policy: bounded retries with backoff and eviction of
// persistently dead endpoints (off otherwise, so fault-free runs reproduce
// the original byte stream). StartCrawler sets cfg.Bootstrap and, on a
// faulted swarm, the retry fields; cfg carries everything else (seed,
// scope, logs). Advance the crawl with RunFor and end it with Stop.
func (s *Swarm) StartCrawler(v int, cfg crawler.Config) (*crawler.Crawler, error) {
	addr := iputil.AddrFrom4(198, 18, byte(v), 1)
	sock, err := s.Listen(netsim.Endpoint{Addr: addr, Port: 9999})
	if err != nil {
		return nil, err
	}
	cfg.Bootstrap = []netsim.Endpoint{s.Bootstrap}
	if s.faulty {
		cfg.MaxRetries = 2
		cfg.RetryBase = 2 * time.Second
		cfg.EvictAfter = 4
	}
	// The crawler schedules on the clock owning its vantage address; RunFor
	// advances every shard in lockstep.
	c := crawler.New(sock, s.ClockAt(addr), cfg)
	s.RunFor(time.Minute)
	c.Start()
	return c, nil
}

// The swarm's fixed fabric and node timings.
const (
	// latencyBase and latencyJitter shape the simulated fabric's one-way
	// delay.
	latencyBase   = 20 * time.Millisecond
	latencyJitter = 60 * time.Millisecond
	// meshDegree is how many random neighbours seed each node's table.
	meshDegree = 8
	// natMappingTTL and natKeepalive govern NATed nodes' reachability;
	// keepalives refresh mappings, at simulation cost.
	natMappingTTL = time.Hour
	natKeepalive  = 20 * time.Minute
)

// SwarmConfig tunes swarm instantiation.
type SwarmConfig struct {
	// Loss is the simulated fabric's datagram loss rate.
	Loss float64
	// RestartsPerDay is each public user's daily client-restart rate: a
	// restarted client rebinds on a new port with a regenerated node ID,
	// producing exactly the multi-port-one-user confound the paper's
	// bt_ping verification exists to reject (§3.1). Zero disables churn.
	RestartsPerDay float64
	// ChurnHorizon bounds how far ahead restarts are scheduled (set it to
	// the planned crawl duration; default 48 h).
	ChurnHorizon time.Duration
	Seed         int64
	// Faults scripts scenario misbehaviour into the swarm: wire faults
	// install on every shard of the fabric, a Byzantine fraction of users
	// fabricate find_node neighbours, and restart storms churn public users
	// at the scripted instants. Nil changes nothing.
	Faults *faults.Scenario
	// Shards partitions the fabric by /16 address block into that many
	// event loops advancing in conservative lockstep windows (see
	// netsim.ShardGroup); 0 means one shard per shard worker,
	// max(ShardWorkers, 1). The swarm behaves identically for every value,
	// fault scenarios included; more shards only spread the work over
	// ShardWorkers goroutines.
	Shards int
	// ShardWorkers bounds how many shards execute concurrently within one
	// window, and so picks the default shard count; any value produces
	// identical results. Default 1: one event loop, no goroutines.
	ShardWorkers int
	// Deprecated: Compact has no effect; every node holds its splitmix64
	// generator by value.
	Compact bool
}

func (c *SwarmConfig) applyDefaults() {
	if c.Shards <= 0 {
		c.Shards = max(c.ShardWorkers, 1)
	}
}

// BuildSwarm instantiates every BitTorrent user of the world as a live DHT
// node: public users bind their address directly; NATed users bind behind
// their gateway's NAT with its ground-truth filtering mode. Tables are
// seeded with a random mesh so the crawler can traverse the whole swarm.
func BuildSwarm(w *blgen.World, cfg SwarmConfig, inScope func(iputil.Addr) bool) (*Swarm, error) {
	cfg.applyDefaults()
	netCfg := netsim.Config{
		Loss:          cfg.Loss,
		LatencyBase:   latencyBase,
		LatencyJitter: latencyJitter,
		Seed:          cfg.Seed ^ 0x4e455453, // "NETS"
	}
	inj, err := faults.NewInjector(cfg.Faults, cfg.Seed^0x464c5453) // "FLTS"
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	inj.Install(&netCfg)
	group, err := netsim.NewShardGroup(cfg.Shards, cfg.ShardWorkers, netCfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s := &Swarm{
		Group:    group,
		NATs:     make(map[iputil.Addr]*netsim.NAT),
		Injector: inj,
		arenas:   make([]dht.NodeArena, len(group.Shards())),
		faulty:   cfg.Faults != nil,
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5357524d)) // "SWRM"

	var byz *faults.Byzantine
	if cfg.Faults != nil {
		byz = cfg.Faults.Byzantine
	}
	for _, u := range w.BTUsers {
		var sock netsim.Socket
		var err error
		if u.BehindNAT {
			nat := s.NATs[u.PublicAddr]
			if nat == nil {
				truth := w.NATByIP[u.PublicAddr]
				filtering := netsim.FullCone
				if truth != nil && truth.Restricted {
					filtering = netsim.AddressRestricted
				}
				nat, err = netsim.NewNAT(s.Group.ShardFor(u.PublicAddr).Net, netsim.NATConfig{
					PublicAddr: u.PublicAddr,
					Filtering:  filtering,
					MappingTTL: natMappingTTL,
				})
				if err != nil {
					return nil, fmt.Errorf("core: NAT at %s: %w", u.PublicAddr, err)
				}
				s.NATs[u.PublicAddr] = nat
			}
			sock, err = nat.Listen(u.PrivateAddr, u.Port)
		} else {
			sock, err = s.Listen(netsim.Endpoint{Addr: u.PublicAddr, Port: u.Port})
		}
		if err != nil {
			return nil, fmt.Errorf("core: user %d: %w", u.ID, err)
		}
		nodeCfg := dht.Config{
			PrivateIP: u.PrivateAddr,
			IDSeed:    uint64(u.ID),
			Seed:      int64(u.ID) * 7919,
			Version:   "RB01",
		}
		if u.BehindNAT {
			nodeCfg.KeepaliveInterval = natKeepalive
		}
		// Hash-selected byzantine users fabricate find_node neighbours;
		// the selection is a pure function of (seed, user ID), so it is
		// identical for any worker count.
		if byz != nil && faults.Selected(cfg.Seed^0x42595a, uint64(u.ID), byz.Frac) { // "BYZ"
			nodeCfg.Byzantine = true
			nodeCfg.ByzantineNodes = byz.Nodes
		}
		node := s.newNode(u.PublicAddr, sock, nodeCfg)
		s.Nodes = append(s.Nodes, node)
		s.Endpoints = append(s.Endpoints, netsim.Endpoint{Addr: u.PublicAddr, Port: u.Port})
	}

	// Mesh: every node learns meshDegree random public users, so crawls
	// can reach the entire swarm from any entry point. NATed users'
	// entries enter tables organically once their mappings open.
	publicIdx := make([]int, 0, len(w.BTUsers))
	for i, u := range w.BTUsers {
		if !u.BehindNAT {
			publicIdx = append(publicIdx, i)
		}
	}
	if len(publicIdx) == 0 {
		return nil, fmt.Errorf("core: swarm has no publicly reachable users")
	}
	// The public users' contact records are gathered once: the mesh reads
	// them in random order, and a dense slice keeps those reads in cache
	// where the nodes themselves would not be at scale.
	publicInfo := make([]krpc.NodeInfo, len(publicIdx))
	for k, j := range publicIdx {
		publicInfo[k] = infoOf(s.Nodes[j], s.Endpoints[j])
	}
	for _, node := range s.Nodes {
		for d := 0; d < meshDegree; d++ {
			node.AddNode(publicInfo[rng.Intn(len(publicInfo))])
		}
	}

	// NATed users open their mappings by pinging a random public user;
	// keepalives then hold the mapping for the rest of the run.
	for i, u := range w.BTUsers {
		if !u.BehindNAT {
			continue
		}
		j := publicIdx[rng.Intn(len(publicIdx))]
		s.Nodes[i].Ping(s.Endpoints[j])
	}

	// Choose an in-scope bootstrap so a scope-restricted crawler can start.
	// It stands for the long-lived router nodes real crawlers bootstrap
	// from, so churn and restart storms never touch it.
	boot := publicIdx[0]
	if inScope != nil {
		for _, j := range publicIdx {
			if inScope(s.Endpoints[j].Addr) {
				boot = j
				break
			}
		}
	}
	s.Bootstrap = s.Endpoints[boot]

	// Client churn: schedule restarts for public users over the horizon.
	if cfg.RestartsPerDay > 0 {
		horizon := cfg.ChurnHorizon
		if horizon <= 0 {
			horizon = 48 * time.Hour
		}
		meanGap := time.Duration(float64(24*time.Hour) / cfg.RestartsPerDay)
		for _, j := range publicIdx {
			if j == boot {
				continue
			}
			at := time.Duration(rng.ExpFloat64() * float64(meanGap))
			for at < horizon {
				s.scheduleRestart(j, at, rng.Int63())
				at += time.Duration(rng.ExpFloat64() * float64(meanGap))
			}
		}
	}

	// Restart storms: at each scripted instant a hash-selected fraction
	// of public users restart simultaneously — the stale-information
	// confound of §3.1 at its worst.
	if cfg.Faults != nil {
		for i, st := range cfg.Faults.Storms {
			stormKey := cfg.Seed ^ 0x53544f52 ^ int64(i)<<48 // "STOR"
			for _, j := range publicIdx {
				if j != boot && faults.Selected(stormKey, uint64(w.BTUsers[j].ID), st.Frac) {
					s.scheduleRestart(j, st.At, stormKey^int64(w.BTUsers[j].ID)*7919)
				}
			}
		}
	}
	return s, nil
}

// scheduleRestart makes user j restart its client at the given offset.
func (s *Swarm) scheduleRestart(j int, at time.Duration, seed int64) {
	// A restarted client keeps its address (only the port moves), so its
	// owning shard never changes.
	s.ClockAt(s.Endpoints[j].Addr).AfterEvent(at, (*swarmRestarts)(s), uint64(len(s.restarts)))
	s.restarts = append(s.restarts, restart{j: j, seed: seed})
}

// Fire runs restart arg: the user's node closes, rebinds on a fresh port,
// regenerates its node ID (the paper's reboot behaviour), and rejoins via a
// known neighbour.
func (t *swarmRestarts) Fire(arg uint64) {
	s := (*Swarm)(t)
	j, seed := s.restarts[arg].j, s.restarts[arg].seed
	old := s.Nodes[j]
	oldEp := s.Endpoints[j]
	neighbours := old.Closest(old.ID(), 4)
	old.Close()
	newEp := netsim.Endpoint{Addr: oldEp.Addr, Port: oldEp.Port + 1 + uint16(seed%977)}
	sock, err := s.Listen(newEp)
	if err != nil {
		// Port collision with another binding: skip this restart.
		return
	}
	node := s.newNode(newEp.Addr, sock, dht.Config{
		PrivateIP: newEp.Addr,
		IDSeed:    uint64(seed), // fresh random part -> fresh node ID
		Seed:      seed,
	})
	for _, info := range neighbours {
		node.AddNode(info)
	}
	if len(neighbours) > 0 {
		node.Ping(netsim.Endpoint{Addr: neighbours[0].Addr, Port: neighbours[0].Port})
	}
	s.Nodes[j] = node
	s.Endpoints[j] = newEp
}

func infoOf(n *dht.Node, ep netsim.Endpoint) krpc.NodeInfo {
	return krpc.NodeInfo{ID: n.ID(), Addr: ep.Addr, Port: ep.Port}
}
