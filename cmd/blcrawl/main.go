// Command blcrawl runs the paper's BitTorrent NAT-detection crawler.
//
// In the default simulated mode it generates a synthetic world, instantiates
// its BitTorrent population on the deterministic network simulator and
// crawls it for the given simulated duration, printing crawl statistics and
// the detected NATed addresses.
//
// With -replay it instead reproduces NAT determination offline from a
// message log that an earlier crawl wrote with -log.
//
// -shard I/N (1-based, 1 <= I <= N) restricts this instance's probing scope
// to the I-th of N address shards; the world itself is regenerated
// identically from the seed. Each shard's -out file holds only addresses of
// its shard (plus, possibly, the bootstrap address, which every shard may
// probe), in the crawl observation format. The union of the N files is not
// a full-world dataset: each shard's crawler walks the DHT only through its
// own addresses, so it learns fewer neighbours and confirms fewer NATs (at
// scale 10, the union of a 2-shard split holds 11% fewer NATed addresses
// than one whole crawl). A malformed or out-of-range -shard is a usage error
// (exit 2). -replay runs no simulated crawl, so combining it with -shard or
// -faults is a usage error too.
//
// Usage:
//
//	blcrawl [-seed N] [-scale F] [-duration DUR] [-loss F] [-faults SCENARIO] [-shard I/N] [-out FILE] [-log FILE]
//	blcrawl -replay crawl.log [-window DUR]
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/blocklist"
	"github.com/reuseblock/reuseblock/internal/core"
	"github.com/reuseblock/reuseblock/internal/crawler"
	"github.com/reuseblock/reuseblock/internal/faults"
	"github.com/reuseblock/reuseblock/internal/iputil"
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
		duration = fs.Duration("duration", 24*time.Hour, "simulated crawl duration")
		loss     = fs.Float64("loss", 0.28, "datagram loss probability (simulated mode)")
		out      = fs.String("out", "", "write detected NATed addresses to this file")
		msgLog   = fs.String("log", "", "write the crawler message log to this file (replayable with crawler.Replay)")
		replay   = fs.String("replay", "", "post-process an existing message log instead of crawling")
		window   = fs.Duration("window", 30*time.Second, "ping-window for -replay scoring")
		faultScn = fs.String("faults", "", "fault scenario to inject (simulated mode; one of: "+strings.Join(faults.Names(), ", ")+")")
		shard    = fs.String("shard", "", "crawl only the I-th of N address shards, as I/N with 1 <= I <= N (simulated mode)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	usageErr := func(err error) int {
		// A wrong shard scope is a usage error, not a runtime failure: treat
		// it like any other bad flag value (exit 2 with usage) so a launcher
		// fails loudly instead of crawling a hole into the dataset.
		fmt.Fprintln(stderr, "blcrawl:", err)
		fs.Usage()
		return 2
	}
	if *replay != "" {
		// -replay runs no simulated crawl, so a shard or fault scenario
		// given with it would be silently dropped.
		var bad string
		fs.Visit(func(f *flag.Flag) {
			if bad == "" && simulatedOnly[f.Name] {
				bad = f.Name
			}
		})
		if bad != "" {
			return usageErr(fmt.Errorf("invalid -%s with -replay: shard and fault flags apply only to the simulated crawl", bad))
		}
	}
	scenario, err := faults.Lookup(*faultScn)
	if err != nil {
		fmt.Fprintln(stderr, "blcrawl:", err)
		return 1
	}
	sh, err := parseShard(*shard)
	if err != nil {
		return usageErr(err)
	}
	if *replay != "" {
		err = runReplay(*replay, *window, stdout)
	} else {
		err = runSimulated(simJob{
			seed: *seed, scale: *scale, duration: *duration, loss: *loss,
			scenario: scenario, shard: sh, out: *out, msgLog: *msgLog,
		}, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "blcrawl:", err)
		return 1
	}
	return 0
}

// simulatedOnly names the flags that configure only the simulated crawl.
var simulatedOnly = map[string]bool{"shard": true, "faults": true}

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

// simJob is one simulated crawl: the inputs that define its output, and
// where to write it.
type simJob struct {
	seed     int64
	scale    float64
	duration time.Duration
	loss     float64
	scenario *faults.Scenario
	shard    shardSpec
	out      string // detected-address file; "" writes none
	msgLog   string // crawler message log; "" writes none
}

// runSimulated generates the world, builds its swarm, crawls it from the
// vantage Swarm.StartCrawler brings up for the job's duration, and prints
// the crawl's statistics.
func runSimulated(job simJob, stdout, stderr io.Writer) (err error) {
	var eventLog io.Writer
	if job.msgLog != "" {
		lf, err := os.Create(job.msgLog)
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
	wp := blgen.DefaultParams(job.seed)
	wp.Scale = job.scale
	w := blgen.Generate(wp)
	fmt.Fprintf(stderr, "world: %d BT users, %d NAT gateways\n", len(w.BTUsers), len(w.NATs))

	scope := w.BlocklistedSpace()
	swarm, err := core.BuildSwarm(w, core.SwarmConfig{
		Loss:         job.loss,
		Seed:         job.seed,
		ChurnHorizon: job.duration,
		Faults:       job.scenario,
	}, scope.Covers)
	if err != nil {
		return err
	}
	cover := scope.Covers
	if !job.shard.whole() {
		cover = job.shard.scope(scope.Covers, swarm.Bootstrap.Addr)
		fmt.Fprintf(stderr, "crawling shard %s of the address space\n", job.shard)
	}
	c, err := swarm.StartCrawler(0, crawler.Config{Scope: cover, Seed: job.seed, EventLog: eventLog})
	if err != nil {
		return err
	}
	swarm.RunFor(job.duration)
	c.Stop()

	st := c.Stats()
	fmt.Fprintf(stdout, "crawled %v of simulated time in %v\n", job.duration, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "messages sent:      %d (get_nodes %d, bt_ping %d)\n", st.MessagesSent, st.GetNodesSent, st.PingsSent)
	fmt.Fprintf(stdout, "responses received: %d (%.1f%%)\n", st.MessagesReceived, st.ResponseRate*100)
	fmt.Fprintf(stdout, "unique IPs:         %d\n", st.UniqueIPs)
	fmt.Fprintf(stdout, "unique node IDs:    %d\n", st.UniqueNodeIDs)
	fmt.Fprintf(stdout, "multi-port IPs:     %d\n", st.MultiPortIPs)
	fmt.Fprintf(stdout, "NATed IPs:          %d (max %d simultaneous users)\n", st.NATedIPs, st.SimultaneousMax)
	if job.scenario != nil {
		fmt.Fprintf(stdout, "resilience:         %d retries, %d late replies, %d endpoints evicted\n",
			st.Retries, st.LateReplies, st.Evicted)
		if swarm.Injector != nil {
			fs := swarm.Injector.Stats()
			fmt.Fprintf(stdout, "%-20s%d burst-dropped, %d blackout-dropped, %d rate-limited, %d corrupted\n",
				"faults ("+job.scenario.Name+"):", fs.BurstDropped, fs.BlackoutDropped, fs.RateLimited, fs.Corrupted)
		}
	}
	detected := make(map[iputil.Addr]int)
	truePositives := 0
	for _, o := range c.NATed() {
		detected[o.Addr] = o.Users
		if _, ok := w.NATByIP[o.Addr]; ok {
			truePositives++
		}
	}
	if len(detected) > 0 {
		fmt.Fprintf(stdout, "ground truth:       %d/%d detected addresses are true NAT gateways\n",
			truePositives, len(detected))
	}
	if job.out != "" {
		return writeOut(job.out, detected, stderr)
	}
	return nil
}

// natedListHeader is the comment header of every crawl observation file.
const natedListHeader = "NATed addresses detected by blcrawl (addr<TAB>users lower bound)"

// writeOut writes a detected-address file in the crawl observation format:
// sorted addr<TAB>users lines under natedListHeader.
func writeOut(path string, detected map[iputil.Addr]int, stderr io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := blocklist.WriteNATedList(f, detected, natedListHeader); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %d addresses to %s\n", len(detected), path)
	return nil
}
