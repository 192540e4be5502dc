package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/crawler"
	"github.com/reuseblock/reuseblock/internal/dht"
	"github.com/reuseblock/reuseblock/internal/faults"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

// replayDiff replays a crawl's message log with the paper's 30 s window and
// reports where the result differs from the crawl's own NATed list in
// addresses or user bounds.
func replayDiff(nated []crawler.NATObservation, log *bytes.Buffer) ([]crawler.LogEvent, error) {
	events, err := crawler.ParseLog(log)
	if err != nil {
		return nil, err
	}
	replayed := crawler.Replay(events, 30*time.Second)
	if len(replayed) != len(nated) {
		return events, fmt.Errorf("replay finds %d NATed addresses, the crawl %d", len(replayed), len(nated))
	}
	for i, o := range nated {
		if r := replayed[i]; r.Addr != o.Addr || r.Users != o.Users {
			return events, fmt.Errorf("replay has %s with %d users where the crawl has %s with %d",
				r.Addr, r.Users, o.Addr, o.Users)
		}
	}
	return events, nil
}

// TestCrawlReplayMatchesNATed pins the paper's two NAT rules to each other
// on one crawl: the crawler's online ping-round scoring, which fills
// Study.NATed, and crawler.Replay's offline sliding window over the same
// crawl's message log must find the same addresses with the same user
// bounds. It runs three worlds through Study.Crawl, fault-free and under
// every catalogued scenario, and one crawl with a client answering on two
// ports under one node ID, which both rules must count as one user.
func TestCrawlReplayMatchesNATed(t *testing.T) {
	scenarios := append([]string{""}, faults.Names()...)
	for _, seed := range []int64{1, 2, 4} {
		wp := blgen.DefaultParams(seed)
		wp.Scale = 0.1
		w := blgen.Generate(wp)
		for _, name := range scenarios {
			scn, err := faults.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			st := NewStudyFromWorld(w, Config{Seed: seed, CrawlDuration: 4 * time.Hour, Faults: scn})
			var log bytes.Buffer
			if err := st.Crawl(&log); err != nil {
				t.Fatalf("seed %d, scenario %q: %v", seed, name, err)
			}
			if len(st.NATed) == 0 {
				t.Fatalf("seed %d, scenario %q: the crawl detected nothing, so the pin compares nothing", seed, name)
			}
			if _, err := replayDiff(st.NATed, &log); err != nil {
				t.Errorf("seed %d, scenario %q: %v", seed, name, err)
			}
		}
	}

	// The simulated world gives every client one port at a time, so no
	// crawl above meets one client on two live ports. Add one: a twin of
	// the bootstrap node with its node ID, on the same address, known to
	// every node: the same private address and ID seed as the bootstrap
	// user derive the same node ID.
	wp := blgen.DefaultParams(1)
	wp.Scale = 0.1
	w := blgen.Generate(wp)
	st := NewStudyFromWorld(w, Config{Seed: 1, CrawlDuration: 4 * time.Hour})
	scope := w.BlocklistedSpace()
	swarm, err := BuildSwarm(w, SwarmConfig{Seed: 1, ChurnHorizon: st.Config.CrawlDuration}, scope.Covers)
	if err != nil {
		t.Fatal(err)
	}
	bi := indexOf(t, swarm, swarm.Bootstrap)
	boot, bootUser := swarm.Nodes[bi], w.BTUsers[bi]
	twinEp := netsim.Endpoint{Addr: swarm.Bootstrap.Addr, Port: swarm.Bootstrap.Port ^ 0x8000}
	sock, err := swarm.Listen(twinEp)
	if err != nil {
		t.Fatal(err)
	}
	twin := swarm.newNode(twinEp.Addr, sock, dht.Config{PrivateIP: bootUser.PrivateAddr, IDSeed: uint64(bootUser.ID), Seed: 1})
	if twin.ID() != boot.ID() {
		t.Fatal("the twin's node ID differs from the bootstrap node's")
	}
	for _, n := range swarm.Nodes {
		n.AddNode(infoOf(twin, twinEp))
	}
	var log bytes.Buffer
	st.BTObserved = iputil.NewSet()
	run := st.crawlVantage(0, swarm, scope.Covers, &log, nil)
	if err := st.mergeVantages([]vantageRun{run}); err != nil {
		t.Fatal(err)
	}
	events, err := replayDiff(st.NATed, &log)
	if err != nil {
		t.Errorf("one client on two ports: %v", err)
	}
	twinPings := 0
	for _, ev := range events {
		if ev.Kind == crawler.EvPingRx && ev.Addr == twinEp.Addr && ev.Port == twinEp.Port {
			twinPings++
		}
	}
	if twinPings == 0 {
		t.Fatal("the two-port client's second port never answered a ping, so the case compares nothing")
	}
}

// TestCrawlLogNeedsOneVantage: a message log records one crawler, so asking
// for one from a multi-vantage crawl is an error, not a log of interleaved
// vantages.
func TestCrawlLogNeedsOneVantage(t *testing.T) {
	st := NewStudyFromWorld(blgen.Generate(blgen.TestParams(9)), Config{Seed: 9, CrawlDuration: time.Hour, Vantages: 2})
	if err := st.Crawl(&bytes.Buffer{}); err == nil {
		t.Fatal("a two-vantage crawl wrote a message log")
	}
}
