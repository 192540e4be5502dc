package fleet

import (
	"fmt"
	"io"
	"os"
	"time"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/blocklist"
	"github.com/reuseblock/reuseblock/internal/core"
	"github.com/reuseblock/reuseblock/internal/crawler"
	"github.com/reuseblock/reuseblock/internal/faults"
	"github.com/reuseblock/reuseblock/internal/iputil"
)

// NATedListHeader is the comment header every crawl observation file
// carries, written by blcrawl, fleet workers, and the coordinator's merged
// output alike — identical headers are what make fleet(1) output
// byte-identical to a plain blcrawl run.
const NATedListHeader = "NATed addresses detected by blcrawl (addr<TAB>users lower bound)"

// CrawlJob describes one shard crawl: the deterministic inputs (seed,
// scale, duration, loss, faults, shard, budget) that fully define the
// crawl's output, plus process-local plumbing (logs, progress callbacks,
// cancellation) that must not influence it.
type CrawlJob struct {
	Seed     int64
	Scale    float64
	Duration time.Duration
	Loss     float64
	Scenario *faults.Scenario
	Shard    ShardSpec
	// Budget is this worker's share of the fleet crawl budget; the zero
	// value leaves the crawl unlimited (plain blcrawl behaviour).
	Budget Budget

	// EventLog, when non-nil, receives the crawler message log.
	EventLog io.Writer
	// Stderr receives the human progress lines ("world: ...", shard
	// banner); nil discards them.
	Stderr io.Writer
	// Chunk splits the simulated run into slices of this length; between
	// slices Progress is invoked and Cancel is polled. Zero runs the whole
	// duration in one slice. Chunking is output-neutral: the simulator's
	// RunFor(a); RunFor(b) is identical to RunFor(a+b).
	Chunk time.Duration
	// Progress, when non-nil, observes a statistics snapshot between
	// chunks (and once after the crawl stops, with Done set). It runs on
	// the simulation loop; implementations must not block.
	Progress func(Snapshot)
	// Cancel, when non-nil and closed, stops the crawl at the next chunk
	// boundary; the result carries what was observed so far.
	Cancel <-chan struct{}
}

// Snapshot is the progress view Progress receives — the fields fleet
// heartbeats carry.
type Snapshot struct {
	Sent     int64
	Received int64
	InFlight int64
	NATed    int64
	Done     bool
}

// CrawlResult is everything a shard crawl produces.
type CrawlResult struct {
	Stats        crawler.Stats
	Observations []crawler.NATObservation
	// Detected maps each NATed address to its simultaneous-user lower
	// bound — the addr<TAB>users file content.
	Detected map[iputil.Addr]int
	// TruePositives counts detected addresses that are real NAT gateways
	// in the generated world's ground truth.
	TruePositives int
	// SawBootstrap reports whether the bootstrap address was observed;
	// the merge uses it to de-overlap union counts (the bootstrap is in
	// every shard's scope).
	SawBootstrap bool
	// FaultStats is the injector's account of what the scenario did to
	// the swarm; nil when no scenario ran.
	FaultStats *faults.Stats
	// Cancelled reports the crawl was stopped early via Cancel.
	Cancelled bool
}

// RunCrawl executes one shard crawl on the deterministic simulator: it
// generates the world, builds the swarm, and drives the crawler that
// core's Swarm.StartCrawler brings up. RunWorker wraps it with the control
// plane and the out file; tests call it directly as the crawl oracle.
func RunCrawl(job CrawlJob) (CrawlResult, error) {
	var res CrawlResult
	stderr := job.Stderr
	if stderr == nil {
		stderr = io.Discard
	}

	wp := blgen.DefaultParams(job.Seed)
	wp.Scale = job.Scale
	w := blgen.Generate(wp)
	fmt.Fprintf(stderr, "world: %d BT users, %d NAT gateways\n", len(w.BTUsers), len(w.NATs))

	scope := w.BlocklistedSpace()
	swarm, err := core.BuildSwarm(w, core.SwarmConfig{
		Loss:         job.Loss,
		Seed:         job.Seed,
		ChurnHorizon: job.Duration,
		Faults:       job.Scenario,
	}, scope.Covers)
	if err != nil {
		return res, err
	}
	cover := scope.Covers
	if !job.Shard.Whole() {
		// Restrict probing to this instance's address shard. The bootstrap
		// stays reachable from every shard, or a scope-restricted crawler
		// could never take its first step.
		cover = job.Shard.Scope(scope.Covers, swarm.Bootstrap.Addr)
		fmt.Fprintf(stderr, "crawling shard %d/%d of the address space\n", job.Shard.Index-1, job.Shard.N)
	}
	c, err := swarm.StartCrawler(0, crawler.Config{
		Scope:       cover,
		Seed:        job.Seed,
		Limiter:     NewTokenBucket(job.Budget.Rate, job.Budget.Burst),
		MaxInflight: job.Budget.MaxInflight,
		EventLog:    job.EventLog,
	})
	if err != nil {
		return res, err
	}

	snapshot := func(done bool) Snapshot {
		st := c.Stats()
		return Snapshot{
			Sent:     st.MessagesSent,
			Received: st.MessagesReceived,
			InFlight: int64(c.InFlight()),
			NATed:    int64(st.NATedIPs),
			Done:     done,
		}
	}
	remaining := job.Duration
	chunk := job.Chunk
	if chunk <= 0 {
		chunk = job.Duration
	}
	for remaining > 0 {
		select {
		case <-job.Cancel:
			res.Cancelled = true
			remaining = 0
		default:
			step := chunk
			if step > remaining {
				step = remaining
			}
			swarm.RunFor(step)
			remaining -= step
			if remaining > 0 && job.Progress != nil {
				job.Progress(snapshot(false))
			}
		}
	}
	c.Stop()
	if job.Progress != nil {
		job.Progress(snapshot(true))
	}

	res.Stats = c.Stats()
	res.Observations = c.NATed()
	res.Detected = make(map[iputil.Addr]int, len(res.Observations))
	for _, o := range res.Observations {
		res.Detected[o.Addr] = o.Users
		if _, ok := w.NATByIP[o.Addr]; ok {
			res.TruePositives++
		}
	}
	res.SawBootstrap = c.ObservedIPs().Contains(swarm.Bootstrap.Addr)
	if swarm.Injector != nil {
		fs := swarm.Injector.Stats()
		res.FaultStats = &fs
	}
	return res, nil
}

// WriteOut writes a detected-address file in the crawl observation format
// (sorted addr<TAB>users with the canonical header), reporting to stderr
// the way blcrawl does. It is shared by RunWorker and the coordinator's
// merge step.
func WriteOut(path string, detected map[iputil.Addr]int, stderr io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := blocklist.WriteNATedList(f, detected, NATedListHeader); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if stderr != nil {
		fmt.Fprintf(stderr, "wrote %d addresses to %s\n", len(detected), path)
	}
	return nil
}
