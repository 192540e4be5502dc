// natdetect: hand-build a small ISP — a few public BitTorrent users plus a
// carrier-grade NAT with several users behind it — and watch the paper's
// crawler (§3.1) identify the shared address and bound the user count.
//
//	go run ./examples/natdetect
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/reuseblock/reuseblock/internal/crawler"
	"github.com/reuseblock/reuseblock/internal/dht"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

func main() {
	clock := netsim.NewClock()
	network, err := netsim.NewNetwork(clock, netsim.Config{
		Loss:          0.1,
		LatencyBase:   15 * time.Millisecond,
		LatencyJitter: 30 * time.Millisecond,
		Seed:          7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Twelve public BitTorrent users.
	var nodes []*dht.Node
	var eps []netsim.Endpoint
	for i := 0; i < 12; i++ {
		ep := netsim.Endpoint{Addr: iputil.AddrFrom4(203, 0, 113, byte(i+1)), Port: 6881}
		sock, err := network.Listen(ep)
		if err != nil {
			log.Fatal(err)
		}
		n := dht.NewNode(sock, clock, dht.Config{
			PrivateIP: ep.Addr, IDSeed: uint64(i + 1), Seed: int64(i + 1),
		})
		nodes = append(nodes, n)
		eps = append(eps, ep)
	}
	for i, n := range nodes {
		for d := 1; d <= 4; d++ {
			j := (i + d) % len(nodes)
			n.AddNode(krpc.NodeInfo{ID: nodes[j].ID(), Addr: eps[j].Addr, Port: eps[j].Port})
		}
	}

	// A full-cone CGN fronting four households, three of which run
	// BitTorrent — the situation from the paper's Cloudflare anecdote.
	natAddr := iputil.MustParseAddr("100.64.7.1")
	nat, err := netsim.NewNAT(network, netsim.NATConfig{
		PublicAddr: natAddr,
		Filtering:  netsim.FullCone,
		MappingTTL: time.Hour,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		priv := iputil.AddrFrom4(192, 168, 1, byte(i+10))
		sock, err := nat.Listen(priv, 6881)
		if err != nil {
			log.Fatal(err)
		}
		n := dht.NewNode(sock, clock, dht.Config{
			PrivateIP: priv, IDSeed: uint64(100 + i), Seed: int64(100 + i),
			KeepaliveInterval: 15 * time.Minute,
		})
		// Join the swarm through a public node, opening the NAT mapping.
		n.Bootstrap(eps[i%len(eps)], nil)
	}

	// The crawler.
	sock, err := network.Listen(netsim.Endpoint{Addr: iputil.MustParseAddr("198.18.0.1"), Port: 9999})
	if err != nil {
		log.Fatal(err)
	}
	c := crawler.New(sock, clock, crawler.Config{
		Bootstrap: []netsim.Endpoint{eps[0]},
		Seed:      1,
	})
	c.Start()

	fmt.Println("crawling 12 public users + 1 CGN (3 BitTorrent users behind it)...")
	for hour := 1; hour <= 6; hour++ {
		clock.RunFor(time.Hour)
		st := c.Stats()
		fmt.Printf("after %dh: %d IPs seen, %d multi-port, %d confirmed NATed\n",
			hour, st.UniqueIPs, st.MultiPortIPs, st.NATedIPs)
	}
	c.Stop()

	fmt.Println()
	for _, o := range c.NATed() {
		fmt.Printf("NATed address %v: ≥%d simultaneous users (ports seen: %d, confirmed %v after start)\n",
			o.Addr, o.Users, o.PortsSeen, o.FirstConfirmed.Sub(netsim.Epoch).Round(time.Minute))
		if o.Addr == natAddr {
			fmt.Println("  -> this is the CGN we built; blocklisting it would punish every household behind it")
		}
	}
	if len(c.NATed()) == 0 {
		fmt.Println("no NATed addresses confirmed (try a longer crawl)")
	}
}
