// Command blfleet coordinates a distributed crawl fleet: it plans an exact
// partition of the crawl scope into N address shards, launches one blcrawl
// worker per shard (real processes by default, in-process goroutines with
// -local), supervises them over a bencoded KRPC-style control plane on
// loopback UDP (readiness, heartbeats, crash detection, bounded
// restart-and-reassign), splits a global crawl budget across the workers,
// and merges the shard observations into the artifact a single crawl of the
// same plan would produce.
//
// The merged output is deterministic: it is byte-identical to running each
// `blcrawl -shard I/N` yourself and merging the files, whatever the worker
// placement, heartbeat timing, or mid-crawl worker crashes.
//
// Usage:
//
//	blfleet -workers 4 -seed 1 -scale 0.5 -duration 24h -out merged.txt
//	blfleet -workers 2 -local -rate 50 -max-inflight 64 -manifest-out m.json
//	blfleet -workers 4 -kill-worker 3 -kill-after 2s   # chaos: prove restart
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"github.com/reuseblock/reuseblock/internal/faults"
	"github.com/reuseblock/reuseblock/internal/fleet"
	"github.com/reuseblock/reuseblock/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its exit code and streams surfaced so tests can drive the
// command in-process: 0 on success (including -h), 2 on flag errors, 1 on
// runtime failures.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("blfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workers  = fs.Int("workers", 2, "number of shard workers (>= 1)")
		seed     = fs.Int64("seed", 1, "world seed")
		scale    = fs.Float64("scale", 0.5, "world scale")
		duration = fs.Duration("duration", 24*time.Hour, "crawl duration (simulated)")
		loss     = fs.Float64("loss", 0.28, "datagram loss probability")
		faultScn = fs.String("faults", "", "fault scenario to inject (one of: "+strings.Join(faults.Names(), ", ")+")")

		rate        = fs.Float64("rate", 0, "aggregate fleet query rate in queries/sec, split across workers (0 = unlimited)")
		burst       = fs.Int("burst", 0, "per-worker token-bucket burst depth (0 = one second of the worker's share)")
		maxInflight = fs.Int("max-inflight", 0, "per-worker bound on outstanding queries (0 = unlimited)")

		out         = fs.String("out", "", "write the merged NATed-address list to this file")
		dir         = fs.String("dir", "", "working directory for per-shard files (default: a temp dir)")
		local       = fs.Bool("local", false, "run workers in-process instead of spawning blcrawl processes")
		blcrawlPath = fs.String("blcrawl", "", "blcrawl binary for process workers (default: next to blfleet, else $PATH)")
		logDir      = fs.String("log-dir", "", "capture per-worker process output here (process workers only)")

		hbInterval  = fs.Duration("hb-interval", 500*time.Millisecond, "worker heartbeat period (> 0)")
		hbTimeout   = fs.Duration("hb-timeout", 15*time.Second, "heartbeat staleness bound before a worker is declared hung (> 0)")
		maxRestarts = fs.Int("max-restarts", 2, "restart budget per shard (>= 0)")
		killWorker  = fs.Int("kill-worker", 0, "chaos: kill this worker once mid-crawl (0 = off)")
		killAfter   = fs.Duration("kill-after", 0, "chaos: wall delay after the worker's first heartbeat before killing it")

		manifestOut = fs.String("manifest-out", "", "write the run manifest (JSON) to this file")
		metricsOut  = fs.String("metrics-out", "", "write the metrics snapshot (Prometheus text) to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usageErr := func(err error) int {
		fmt.Fprintln(stderr, "blfleet:", err)
		fs.Usage()
		return 2
	}
	// Validation mirrors blcrawl's worker-flag standard: a misconfigured
	// fleet must fail loudly before any worker starts.
	if *workers < 1 {
		return usageErr(fmt.Errorf("invalid -workers %d: want >= 1", *workers))
	}
	if *rate < 0 {
		return usageErr(fmt.Errorf("invalid -rate %v: want >= 0", *rate))
	}
	if *burst < 0 {
		return usageErr(fmt.Errorf("invalid -burst %d: want >= 0", *burst))
	}
	if *maxInflight < 0 {
		return usageErr(fmt.Errorf("invalid -max-inflight %d: want >= 0", *maxInflight))
	}
	if *hbInterval <= 0 {
		return usageErr(fmt.Errorf("invalid -hb-interval %v: want > 0", *hbInterval))
	}
	if *hbTimeout <= 0 {
		return usageErr(fmt.Errorf("invalid -hb-timeout %v: want > 0", *hbTimeout))
	}
	if *maxRestarts < 0 {
		return usageErr(fmt.Errorf("invalid -max-restarts %d: want >= 0", *maxRestarts))
	}
	if *killWorker < 0 || *killWorker > *workers {
		return usageErr(fmt.Errorf("invalid -kill-worker %d: want 0 (off) or 1..%d", *killWorker, *workers))
	}
	if _, err := faults.Lookup(*faultScn); err != nil {
		fmt.Fprintln(stderr, "blfleet:", err)
		return 1
	}

	if err := runFleet(fleetOpts{
		workers: *workers, seed: *seed, scale: *scale, duration: *duration,
		loss: *loss, faultScn: *faultScn,
		budget: fleet.Budget{Rate: *rate, Burst: *burst, MaxInflight: *maxInflight},
		out:    *out, dir: *dir, local: *local, blcrawl: *blcrawlPath, logDir: *logDir,
		hbInterval: *hbInterval, hbTimeout: *hbTimeout, maxRestarts: *maxRestarts,
		killWorker: *killWorker, killAfter: *killAfter,
		manifestOut: *manifestOut, metricsOut: *metricsOut,
	}, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "blfleet:", err)
		return 1
	}
	return 0
}

type fleetOpts struct {
	workers     int
	seed        int64
	scale       float64
	duration    time.Duration
	loss        float64
	faultScn    string
	budget      fleet.Budget
	out         string
	dir         string
	local       bool
	blcrawl     string
	logDir      string
	hbInterval  time.Duration
	hbTimeout   time.Duration
	maxRestarts int
	killWorker  int
	killAfter   time.Duration
	manifestOut string
	metricsOut  string
}

// findBlcrawl resolves the worker binary: an explicit -blcrawl path, a
// blcrawl next to the blfleet executable (the layout `go build ./...`
// produces), or $PATH.
func findBlcrawl(explicit string) (string, error) {
	if explicit != "" {
		if _, err := os.Stat(explicit); err != nil {
			return "", fmt.Errorf("-blcrawl %s: %v", explicit, err)
		}
		return explicit, nil
	}
	if self, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(self), "blcrawl")
		if _, err := os.Stat(sibling); err == nil {
			return sibling, nil
		}
	}
	path, err := exec.LookPath("blcrawl")
	if err != nil {
		return "", fmt.Errorf("blcrawl binary not found (set -blcrawl, or use -local for in-process workers)")
	}
	return path, nil
}

func runFleet(o fleetOpts, stdout, stderr io.Writer) error {
	dir := o.dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "blfleet")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	var runner fleet.Runner
	if o.local {
		runner = fleet.LocalRunner{}
	} else {
		bin, err := findBlcrawl(o.blcrawl)
		if err != nil {
			return err
		}
		runner = &fleet.ProcRunner{Binary: bin, LogDir: o.logDir}
	}

	reg := obs.NewRegistry()
	start := time.Now()
	res, err := fleet.Run(fleet.Config{
		Workers:       o.workers,
		Seed:          o.seed,
		Scale:         o.scale,
		Duration:      o.duration,
		Loss:          o.loss,
		FaultScenario: o.faultScn,
		Budget:        o.budget,
		Runner:        runner,
		Dir:           dir,
		OutFile:       o.out,
		HBInterval:    o.hbInterval,
		HBTimeout:     o.hbTimeout,
		MaxRestarts:   o.maxRestarts,
		KillWorker:    o.killWorker,
		KillAfter:     o.killAfter,
		Obs:           reg,
		Log:           stderr,
	})
	if err != nil {
		return err
	}

	st := res.Stats
	fmt.Fprintf(stdout, "fleet crawled %v of simulated time across %d workers in %v\n",
		o.duration, o.workers, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "messages sent:      %d (get_nodes %d, bt_ping %d)\n", st.MessagesSent, st.GetNodesSent, st.PingsSent)
	fmt.Fprintf(stdout, "responses received: %d (%.1f%%)\n", st.MessagesReceived, st.ResponseRate*100)
	fmt.Fprintf(stdout, "unique IPs:         %d\n", st.UniqueIPs)
	fmt.Fprintf(stdout, "unique node IDs:    %d\n", st.UniqueNodeIDs)
	fmt.Fprintf(stdout, "multi-port IPs:     %d\n", st.MultiPortIPs)
	fmt.Fprintf(stdout, "NATed IPs:          %d (max %d simultaneous users)\n", st.NATedIPs, st.SimultaneousMax)
	if len(res.Merged) > 0 {
		fmt.Fprintf(stdout, "ground truth:       %d/%d detected addresses are true NAT gateways\n",
			res.TruePositives, len(res.Merged))
	}
	fmt.Fprintf(stdout, "throughput:         %.1f hosts/sec, merge %v\n",
		res.HostsPerSec, res.MergeElapsed.Round(time.Microsecond))
	fmt.Fprintf(stdout, "worker  shard  attempts  restarts  heartbeats  msgs-sent  nated\n")
	for _, w := range res.PerWorker {
		killed := ""
		if w.Killed {
			killed = "  (chaos-killed)"
		}
		fmt.Fprintf(stdout, "%6d  %5s  %8d  %8d  %10d  %9d  %5d%s\n",
			w.Worker, w.Shard, w.Attempts, w.Restarts, w.Heartbeats, w.Stats.MessagesSent, w.Stats.NATedIPs, killed)
	}

	if o.manifestOut != "" {
		m := obs.NewManifest()
		m.Seed = o.seed
		m.Scale = o.scale
		m.Workers = o.workers
		m.FaultScenario = o.faultScn
		m.Metrics = reg.Snapshot(true)
		fleetStatus := &obs.FleetStatus{
			Workers:     o.workers,
			RateBudget:  o.budget.String(),
			Restarts:    res.Restarts,
			HostsPerSec: res.HostsPerSec,
			MergeMillis: res.MergeElapsed.Milliseconds(),
		}
		for _, w := range res.PerWorker {
			fleetStatus.Shards = append(fleetStatus.Shards, obs.FleetShardStatus{
				Worker:       w.Worker,
				Shard:        w.Shard,
				Attempts:     w.Attempts,
				Restarts:     w.Restarts,
				Killed:       w.Killed,
				Heartbeats:   w.Heartbeats,
				MessagesSent: w.Stats.MessagesSent,
				NATedIPs:     w.Stats.NATedIPs,
			})
		}
		m.Fleet = fleetStatus
		data, err := m.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.manifestOut, data, 0o644); err != nil {
			return err
		}
	}
	if o.metricsOut != "" {
		if err := os.WriteFile(o.metricsOut, []byte(reg.RenderText(true)), 0o644); err != nil {
			return err
		}
	}
	return nil
}
