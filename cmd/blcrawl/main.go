// Command blcrawl runs the paper's BitTorrent NAT-detection crawler.
//
// In the default simulated mode it generates the synthetic world for -seed
// and -scale and runs the study's crawl stage on it (core.Study.Crawl, the
// crawl blreport runs for the same seed, scale and duration), printing crawl
// statistics and the detected NATed addresses.
//
// With -replay it instead reproduces NAT determination offline from a
// message log that an earlier crawl wrote with -log.
//
// The crawl covers the world's whole blocklisted space from one vantage, as
// the paper's does; -out writes the detected addresses in the crawl
// observation format. -replay runs no simulated crawl, so combining it with
// -faults is a usage error (exit 2).
//
// Usage:
//
//	blcrawl [-seed N] [-scale F] [-duration DUR] [-faults SCENARIO] [-out FILE] [-log FILE]
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
		out      = fs.String("out", "", "write detected NATed addresses to this file")
		msgLog   = fs.String("log", "", "write the crawler message log to this file (replayable with crawler.Replay)")
		replay   = fs.String("replay", "", "post-process an existing message log instead of crawling")
		window   = fs.Duration("window", 30*time.Second, "ping-window for -replay scoring")
		faultScn = fs.String("faults", "", "fault scenario to inject (simulated mode; one of: "+strings.Join(faults.Names(), ", ")+")")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *replay != "" && *faultScn != "" {
		// -replay runs no simulated crawl, so a fault scenario given with
		// it would be silently dropped: a usage error, like a bad flag.
		fmt.Fprintln(stderr, "blcrawl: invalid -faults with -replay: a fault scenario applies only to the simulated crawl")
		fs.Usage()
		return 2
	}
	scenario, err := faults.Lookup(*faultScn)
	if err != nil {
		fmt.Fprintln(stderr, "blcrawl:", err)
		return 1
	}
	if *replay != "" {
		err = runReplay(*replay, *window, stdout)
	} else {
		err = runSimulated(simJob{
			seed: *seed, scale: *scale, duration: *duration,
			scenario: scenario, out: *out, msgLog: *msgLog,
		}, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "blcrawl:", err)
		return 1
	}
	return 0
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

// simJob is one simulated crawl: the inputs that define its output, and
// where to write it.
type simJob struct {
	seed     int64
	scale    float64
	duration time.Duration
	scenario *faults.Scenario
	out      string // detected-address file; "" writes none
	msgLog   string // crawler message log; "" writes none
}

// runSimulated generates the world and runs the study's crawl stage on it
// for the job's duration, then prints the crawl's statistics.
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
	s := core.NewStudy(core.Config{Seed: job.seed, World: &wp, CrawlDuration: job.duration, Faults: job.scenario})
	w := s.World
	fmt.Fprintf(stderr, "world: %d BT users, %d NAT gateways\n", len(w.BTUsers), len(w.NATs))
	if err := s.Crawl(eventLog); err != nil {
		return err
	}

	st := s.CrawlStats
	fmt.Fprintf(stdout, "crawled %v of simulated time in %v\n", job.duration, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "messages sent:      %d (get_nodes %d, bt_ping %d)\n", st.MessagesSent, st.GetNodesSent, st.PingsSent)
	fmt.Fprintf(stdout, "responses received: %d (%.1f%%)\n", st.MessagesReceived, st.ResponseRate*100)
	fmt.Fprintf(stdout, "unique IPs:         %d\n", st.UniqueIPs)
	fmt.Fprintf(stdout, "unique node IDs:    %d\n", st.UniqueNodeIDs)
	fmt.Fprintf(stdout, "NATed IPs:          %d (max %d simultaneous users)\n", st.NATedIPs, st.SimultaneousMax)
	if job.scenario != nil {
		fmt.Fprintf(stdout, "resilience:         %d retries, %d late replies, %d endpoints evicted\n",
			st.Retries, st.LateReplies, st.Evicted)
		fs := s.FaultStats
		fmt.Fprintf(stdout, "%-20s%d burst-dropped, %d blackout-dropped, %d rate-limited, %d corrupted\n",
			"faults ("+job.scenario.Name+"):", fs.BurstDropped, fs.BlackoutDropped, fs.RateLimited, fs.Corrupted)
	}
	detected := make(map[iputil.Addr]int)
	truePositives := 0
	for _, o := range s.NATed {
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
