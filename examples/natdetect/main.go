// natdetect: hand-build a small ISP — a few public BitTorrent users plus a
// carrier-grade NAT with several users behind it — and watch the paper's
// crawler (§3.1) identify the shared address and bound the user count.
//
//	go run ./examples/natdetect
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"github.com/reuseblock/reuseblock/internal/crawler"
	"github.com/reuseblock/reuseblock/internal/dht"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run builds the ISP, crawls it for six simulated hours and writes what the
// crawler saw to w.
func run(w io.Writer) error {
	clock := netsim.NewClock()
	network, err := netsim.NewNetwork(clock, netsim.Config{
		Loss:          0.1,
		LatencyBase:   15 * time.Millisecond,
		LatencyJitter: 30 * time.Millisecond,
		Seed:          7,
	})
	if err != nil {
		return err
	}

	// Twelve public BitTorrent users.
	var nodes []*dht.Node
	var eps []netsim.Endpoint
	for i := 0; i < 12; i++ {
		ep := netsim.Endpoint{Addr: iputil.AddrFrom4(203, 0, 113, byte(i+1)), Port: 6881}
		sock, err := network.Listen(ep)
		if err != nil {
			return err
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
		return err
	}
	for i := 0; i < 3; i++ {
		priv := iputil.AddrFrom4(192, 168, 1, byte(i+10))
		sock, err := nat.Listen(priv, 6881)
		if err != nil {
			return err
		}
		n := dht.NewNode(sock, clock, dht.Config{
			PrivateIP: priv, IDSeed: uint64(100 + i), Seed: int64(100 + i),
			KeepaliveInterval: 15 * time.Minute,
		})
		// Join the swarm as core.BuildSwarm does: learn a few public users,
		// then ping one of them, which opens the NAT mapping.
		for d := 0; d < 4; d++ {
			j := (i + d) % len(nodes)
			n.AddNode(krpc.NodeInfo{ID: nodes[j].ID(), Addr: eps[j].Addr, Port: eps[j].Port})
		}
		n.Ping(eps[i%len(eps)])
	}

	// The crawler.
	sock, err := network.Listen(netsim.Endpoint{Addr: iputil.MustParseAddr("198.18.0.1"), Port: 9999})
	if err != nil {
		return err
	}
	c := crawler.New(sock, clock, crawler.Config{
		Bootstrap: []netsim.Endpoint{eps[0]},
		Seed:      1,
	})
	c.Start()

	fmt.Fprintln(w, "crawling 12 public users + 1 CGN (3 BitTorrent users behind it)...")
	for hour := 1; hour <= 6; hour++ {
		clock.RunFor(time.Hour)
		st := c.Stats()
		fmt.Fprintf(w, "after %dh: %d IPs seen, %d multi-port, %d confirmed NATed\n",
			hour, st.UniqueIPs, st.MultiPortIPs, st.NATedIPs)
	}
	c.Stop()

	fmt.Fprintln(w)
	for _, o := range c.NATed() {
		fmt.Fprintf(w, "NATed address %v: ≥%d simultaneous users (ports seen: %d, confirmed %v after start)\n",
			o.Addr, o.Users, o.PortsSeen, o.FirstConfirmed.Sub(netsim.Epoch).Round(time.Minute))
		if o.Addr == natAddr {
			fmt.Fprintln(w, "  -> this is the CGN we built; blocklisting it would punish every household behind it")
		}
	}
	if len(c.NATed()) == 0 {
		fmt.Fprintln(w, "no NATed addresses confirmed (try a longer crawl)")
	}
	return nil
}
