// Command blcrawl runs the paper's BitTorrent NAT-detection crawler.
//
// In the default simulated mode it generates a synthetic world, instantiates
// its BitTorrent population on the deterministic network simulator and
// crawls it for the given simulated duration, printing crawl statistics and
// the detected NATed addresses.
//
// With -real N it instead spawns N genuine DHT nodes on loopback UDP
// sockets — including a NAT-like multi-node group sharing ports behind one
// address is not possible on loopback, so the real mode demonstrates the
// crawler against live sockets and reports discovery statistics.
//
// A fleet of blcrawl processes can split one world between them: -shard I/N
// (1-based, 1 <= I <= N) restricts this instance's probing scope to the I-th
// of N address shards (the world itself is regenerated identically from the
// seed in every process), so the union of the shards' -out files is a
// full-world dataset. A malformed or out-of-range -shard is a usage error
// (exit 2): a fleet member crawling the wrong scope would silently hole the
// merged dataset.
//
// Worker mode (used by blfleet, usable by any supervisor): -report-to
// HOST:PORT connects the crawl to a fleet coordinator over loopback UDP —
// the worker announces itself (fleet_ready), streams progress heartbeats
// (fleet_hb) at -hb-interval, and delivers its final statistics
// (fleet_done) with retry-until-ack. -worker names this instance in those
// messages. -rate/-burst meter the crawl through a deterministic token
// bucket (this worker's share of the fleet budget) and -max-inflight bounds
// outstanding queries. Malformed worker-mode values are usage errors (exit
// 2 + usage), exactly like -shard.
//
// The simulated mode is fleet.RunWorker plus a statistics printout: a shard
// crawl started here runs the same code as a blfleet worker process or an
// in-process fleet.LocalRunner worker. -real and -replay run no shard
// crawl, so combining them with -shard, -faults, the worker flags or the
// budget flags is a usage error too — such a worker would never report to
// its coordinator.
//
// Usage:
//
//	blcrawl [-seed N] [-scale F] [-duration DUR] [-loss F] [-faults SCENARIO] [-shard I/N] [-out FILE]
//	blcrawl -real 50 [-duration DUR]
//	blcrawl -shard 2/4 -report-to 127.0.0.1:40000 -worker 2 [-rate F] [-max-inflight N] ...
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/reuseblock/reuseblock/internal/crawler"
	"github.com/reuseblock/reuseblock/internal/dht"
	"github.com/reuseblock/reuseblock/internal/faults"
	"github.com/reuseblock/reuseblock/internal/fleet"
	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its exit code and streams surfaced so tests can drive the
// command in-process: 0 on success (including -h), 2 on flag errors, 1 on
// runtime failures.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("blcrawl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Int64("seed", 1, "world seed")
		scale    = fs.Float64("scale", 0.5, "world scale")
		duration = fs.Duration("duration", 24*time.Hour, "crawl duration (simulated; wall-clock in -real mode)")
		loss     = fs.Float64("loss", 0.28, "datagram loss probability (simulated mode)")
		out      = fs.String("out", "", "write detected NATed addresses to this file")
		msgLog   = fs.String("log", "", "write the crawler message log to this file (replayable with crawler.Replay)")
		realN    = fs.Int("real", 0, "run against N real DHT nodes on loopback UDP instead of the simulator")
		replay   = fs.String("replay", "", "post-process an existing message log instead of crawling")
		window   = fs.Duration("window", 30*time.Second, "ping-window for -replay scoring")
		faultScn = fs.String("faults", "", "fault scenario to inject (simulated mode; one of: "+strings.Join(faults.Names(), ", ")+")")
		shard    = fs.String("shard", "", "crawl only the I-th of N address shards, as I/N with 1 <= I <= N (simulated mode)")

		reportTo    = fs.String("report-to", "", "fleet worker mode: coordinator control address (HOST:PORT) to report to")
		workerID    = fs.Int("worker", 0, "fleet worker mode: this worker's number (>= 1; requires -report-to)")
		hbInterval  = fs.Duration("hb-interval", 500*time.Millisecond, "fleet worker mode: heartbeat period (> 0)")
		rate        = fs.Float64("rate", 0, "budget: sustained query rate in queries/sec (0 = unlimited)")
		burst       = fs.Int("burst", 0, "budget: token-bucket burst depth (0 = one second of -rate)")
		maxInflight = fs.Int("max-inflight", 0, "budget: bound on outstanding queries (0 = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	usageErr := func(err error) int {
		// A wrong shard scope or worker wiring is a usage error, not a
		// runtime failure: treat it like any other bad flag value (exit 2
		// with usage) so fleet launchers fail loudly instead of crawling a
		// hole into the dataset.
		fmt.Fprintln(stderr, "blcrawl:", err)
		fs.Usage()
		return 2
	}
	if *replay != "" || *realN > 0 {
		// -real and -replay run no shard crawl, so a worker launched with
		// either would never report to its coordinator.
		mode := "-real"
		if *replay != "" {
			mode = "-replay"
		}
		var bad string
		fs.Visit(func(f *flag.Flag) {
			if bad == "" && simulatedOnly[f.Name] {
				bad = f.Name
			}
		})
		if bad != "" {
			return usageErr(fmt.Errorf("invalid -%s with %s: shard, fault, worker and budget flags apply only to the simulated crawl", bad, mode))
		}
	}
	scenario, err := faults.Lookup(*faultScn)
	if err != nil {
		fmt.Fprintln(stderr, "blcrawl:", err)
		return 1
	}
	shardSpec, err := fleet.ParseShard(*shard)
	if err != nil {
		return usageErr(err)
	}
	spec, err := validateWorkerFlags(*reportTo, *workerID, *hbInterval, *rate, *burst, *maxInflight)
	if err != nil {
		return usageErr(err)
	}
	switch {
	case *replay != "":
		err = runReplay(*replay, *window, stdout)
	case *realN > 0:
		err = runReal(*realN, *duration, stdout)
	default:
		spec.Shard = shardSpec
		spec.Seed, spec.Scale, spec.Duration, spec.Loss = *seed, *scale, *duration, *loss
		spec.FaultScenario = *faultScn
		spec.OutFile = *out
		err = runSimulated(spec, scenario, *msgLog, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "blcrawl:", err)
		return 1
	}
	return 0
}

// simulatedOnly names the flags that configure a simulated shard crawl.
var simulatedOnly = map[string]bool{
	"shard": true, "faults": true, "report-to": true, "worker": true, "hb-interval": true,
	"rate": true, "burst": true, "max-inflight": true,
}

// validateWorkerFlags applies the -shard validation standard to the worker
// and budget flags: anything malformed is rejected before the crawl starts.
// The returned spec carries the worker wiring and budget.
func validateWorkerFlags(reportTo string, worker int, hbInterval time.Duration, rate float64, burst, maxInflight int) (fleet.WorkerSpec, error) {
	var w fleet.WorkerSpec
	if rate < 0 {
		return w, fmt.Errorf("invalid -rate %v: want >= 0", rate)
	}
	if burst < 0 {
		return w, fmt.Errorf("invalid -burst %d: want >= 0", burst)
	}
	if maxInflight < 0 {
		return w, fmt.Errorf("invalid -max-inflight %d: want >= 0", maxInflight)
	}
	w.Budget = fleet.Budget{Rate: rate, Burst: burst, MaxInflight: maxInflight}
	if reportTo == "" {
		if worker != 0 {
			return w, fmt.Errorf("invalid -worker %d: requires -report-to", worker)
		}
		return w, nil
	}
	if _, err := fleet.ParseControlAddr(reportTo); err != nil {
		return w, fmt.Errorf("invalid -report-to: %v", err)
	}
	if worker < 1 {
		return w, fmt.Errorf("invalid -worker %d: want >= 1 with -report-to", worker)
	}
	if hbInterval <= 0 {
		return w, fmt.Errorf("invalid -hb-interval %v: want > 0", hbInterval)
	}
	w.ReportTo = reportTo
	w.ID = worker
	w.HBInterval = hbInterval
	return w, nil
}

// runReplay reproduces NAT determination offline from a message log — the
// paper's post-processing step.
func runReplay(path string, window time.Duration, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := crawler.ParseLog(bufio.NewReader(f))
	if err != nil {
		return err
	}
	obs := crawler.Replay(events, window)
	fmt.Fprintf(stdout, "replayed %d log events -> %d NATed addresses\n", len(events), len(obs))
	for _, o := range obs {
		fmt.Fprintf(stdout, "%s\tusers>=%d\tports=%d\n", o.Addr, o.Users, o.PortsSeen)
	}
	return nil
}

// runSimulated runs the shard crawl through fleet.RunWorker — the same
// code a blfleet worker runs — and prints its statistics.
func runSimulated(spec fleet.WorkerSpec, scenario *faults.Scenario, msgLog string, stdout, stderr io.Writer) (err error) {
	var eventLog io.Writer
	if msgLog != "" {
		lf, err := os.Create(msgLog)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(lf)
		defer func() {
			if ferr := w.Flush(); ferr != nil && err == nil {
				err = ferr
			}
			if cerr := lf.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		eventLog = w
	}

	start := time.Now()
	res, err := fleet.RunWorker(spec, eventLog, nil, stderr)
	if err != nil {
		return err
	}

	st := res.Stats
	fmt.Fprintf(stdout, "crawled %v of simulated time in %v\n", spec.Duration, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "messages sent:      %d (get_nodes %d, bt_ping %d)\n", st.MessagesSent, st.GetNodesSent, st.PingsSent)
	fmt.Fprintf(stdout, "responses received: %d (%.1f%%)\n", st.MessagesReceived, st.ResponseRate*100)
	fmt.Fprintf(stdout, "unique IPs:         %d\n", st.UniqueIPs)
	fmt.Fprintf(stdout, "unique node IDs:    %d\n", st.UniqueNodeIDs)
	fmt.Fprintf(stdout, "multi-port IPs:     %d\n", st.MultiPortIPs)
	fmt.Fprintf(stdout, "NATed IPs:          %d (max %d simultaneous users)\n", st.NATedIPs, st.SimultaneousMax)
	if scenario != nil {
		fmt.Fprintf(stdout, "resilience:         %d retries, %d late replies, %d endpoints evicted\n",
			st.Retries, st.LateReplies, st.Evicted)
		if res.FaultStats != nil {
			fs := res.FaultStats
			fmt.Fprintf(stdout, "%-20s%d burst-dropped, %d blackout-dropped, %d rate-limited, %d corrupted\n",
				"faults ("+scenario.Name+"):", fs.BurstDropped, fs.BlackoutDropped, fs.RateLimited, fs.Corrupted)
		}
	}
	if len(res.Detected) > 0 {
		fmt.Fprintf(stdout, "ground truth:       %d/%d detected addresses are true NAT gateways\n",
			res.TruePositives, len(res.Detected))
	}
	return nil
}

// runReal spawns n real DHT nodes on loopback UDP and crawls them with the
// same crawler code over a real socket.
func runReal(n int, duration time.Duration, stdout io.Writer) error {
	var mu sync.Mutex
	clock := dht.LockedClock(&mu, dht.WallClock())

	var nodes []*dht.Node
	var socks []*dht.RealSocket
	var eps []netsim.Endpoint
	for i := 0; i < n; i++ {
		sock, ep, err := dht.ListenLoopback(&mu)
		if err != nil {
			return err
		}
		mu.Lock()
		node := dht.NewNode(sock, clock, dht.Config{
			IDSeed: uint64(i + 1), Seed: int64(i + 1), Version: "RB01",
		})
		mu.Unlock()
		nodes = append(nodes, node)
		socks = append(socks, sock)
		eps = append(eps, ep)
	}
	// Mesh the nodes.
	mu.Lock()
	for i, node := range nodes {
		for d := 1; d <= 4; d++ {
			j := (i + d) % n
			node.AddNode(infoFor(nodes[j], eps[j]))
		}
	}
	mu.Unlock()

	csock, _, err := dht.ListenLoopback(&mu)
	if err != nil {
		return err
	}
	mu.Lock()
	c := crawler.New(csock, clock, crawler.Config{
		Bootstrap:     []netsim.Endpoint{eps[0]},
		Seed:          1,
		Tick:          200 * time.Millisecond,
		SweepInterval: 5 * time.Second,
		PingInterval:  5 * time.Second,
		PingWindow:    time.Second,
		Cooldown:      2 * time.Second,
		QueryTimeout:  time.Second,
	})
	c.Start()
	mu.Unlock()

	fmt.Fprintf(stdout, "crawling %d real loopback DHT nodes for %v...\n", n, duration)
	time.Sleep(duration)

	mu.Lock()
	c.Stop()
	st := c.Stats()
	mu.Unlock()
	fmt.Fprintf(stdout, "messages sent:      %d\n", st.MessagesSent)
	fmt.Fprintf(stdout, "responses received: %d (%.1f%%)\n", st.MessagesReceived, st.ResponseRate*100)
	fmt.Fprintf(stdout, "unique IPs:         %d (loopback shares 127.0.0.1 across ports)\n", st.UniqueIPs)
	fmt.Fprintf(stdout, "unique node IDs:    %d of %d\n", st.UniqueNodeIDs, n)
	fmt.Fprintf(stdout, "NATed IPs:          %d\n", st.NATedIPs)
	if st.NATedIPs == 1 {
		fmt.Fprintln(stdout, "note: all loopback nodes share 127.0.0.1, so the crawler correctly")
		fmt.Fprintln(stdout, "      identifies it as one address shared by many simultaneous users —")
		fmt.Fprintln(stdout, "      exactly the NAT signature of §3.1.")
	}

	mu.Lock()
	for _, node := range nodes {
		node.Close()
	}
	c.Stop()
	mu.Unlock()
	for _, s := range socks {
		s.Wait()
	}
	return nil
}

func infoFor(n *dht.Node, ep netsim.Endpoint) krpc.NodeInfo {
	return krpc.NodeInfo{ID: n.ID(), Addr: ep.Addr, Port: ep.Port}
}
