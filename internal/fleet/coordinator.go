package fleet

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/reuseblock/reuseblock/internal/blocklist"
	"github.com/reuseblock/reuseblock/internal/crawler"
	"github.com/reuseblock/reuseblock/internal/dht"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/netsim"
	"github.com/reuseblock/reuseblock/internal/obs"
)

// Config parameterises one coordinated fleet crawl.
type Config struct {
	Workers  int
	Seed     int64
	Scale    float64
	Duration time.Duration
	Loss     float64
	// FaultScenario is the fault scenario name ("" = fault-free).
	FaultScenario string
	// Budget is the aggregate fleet crawl budget, split evenly across the
	// shards; a shard's share follows it through restarts.
	Budget Budget

	// Runner launches workers; required.
	Runner Runner
	// Dir is the working directory for per-shard observation files.
	Dir string
	// OutFile, when non-empty, receives the merged observations.
	OutFile string

	// HBInterval is the worker heartbeat period (default 500ms).
	HBInterval time.Duration
	// HBTimeout is how stale a ready worker's heartbeat may grow before
	// the coordinator declares it hung and restarts its shard (default
	// 15s; staleness is judged from launch for workers that never
	// reported ready).
	HBTimeout time.Duration
	// MaxRestarts bounds restarts per shard (default 2). Exceeding it
	// fails the whole crawl: a shard that cannot complete would hole the
	// merged dataset.
	MaxRestarts int

	// KillWorker, when > 0, is a chaos hook: the coordinator kills that
	// worker once after its first heartbeat (plus KillAfter), then
	// supervision takes over. Proves restart-and-reassign end to end.
	KillWorker int
	KillAfter  time.Duration

	// Obs, when non-nil, receives fleet gauges and counters.
	Obs *obs.Registry
	// Log, when non-nil, receives coordinator progress lines.
	Log io.Writer
}

// WorkerStatus is one shard's final account.
type WorkerStatus struct {
	Worker        int
	Shard         string
	Attempts      int
	Restarts      int
	Killed        bool
	OutFile       string
	Stats         crawler.Stats
	TruePositives int
	SawBootstrap  bool
	Heartbeats    int64
}

// Result is the merged outcome of a fleet crawl.
type Result struct {
	// Merged is the fleet-wide observation set (union of shard files,
	// max users per address), sorted by address.
	Merged []crawler.NATObservation
	// Stats is the fleet-wide crawl statistics: counters summed via
	// crawler.MergeStats, union counts corrected for the bootstrap overlap.
	Stats         crawler.Stats
	TruePositives int
	PerWorker     []WorkerStatus
	Restarts      int
	// HostsPerSec is unique hosts observed per wall-clock second of the
	// crawl phase — the fleet's throughput figure.
	HostsPerSec float64
	// MergeElapsed is the wall time of the merge step alone.
	MergeElapsed time.Duration
	// Elapsed is the wall time of the whole run.
	Elapsed time.Duration
}

// shardState is the coordinator's view of one shard, guarded by the
// control-plane mutex.
type shardState struct {
	spec     WorkerSpec
	handle   WorkerHandle
	ready    bool
	launched time.Time
	lastHB   time.Time
	firstHB  time.Time
	hbCount  int64
	lastSnap Heartbeat
	done     *Done
	exited   bool
	exitErr  error
	exitAt   time.Time
	restarts int
	killed   bool // chaos kill performed
}

// Coordinator runs one fleet crawl: plan, launch, supervise, merge.
type Coordinator struct {
	cfg    Config
	mu     sync.Mutex // control-plane mutex (RealSocket contract)
	sock   *dht.RealSocket
	addr   netsim.Endpoint
	shards []*shardState

	hbTotal *obs.Counter
	rsTotal *obs.Counter
	live    *obs.Gauge
	flight  *obs.Gauge
}

// poll is the supervision loop's wall-clock cadence.
const poll = 25 * time.Millisecond

// doneGrace is how long after a clean worker exit the coordinator keeps
// waiting for an in-flight fleet_done datagram before declaring the report
// lost and restarting the shard.
const doneGrace = 2 * time.Second

// Run executes a fleet crawl under cfg and returns the merged result.
func Run(cfg Config) (*Result, error) {
	if cfg.Runner == nil {
		return nil, fmt.Errorf("fleet: Config.Runner is required")
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("fleet: worker count %d: want at least 1", cfg.Workers)
	}
	if cfg.HBInterval <= 0 {
		cfg.HBInterval = 500 * time.Millisecond
	}
	if cfg.HBTimeout <= 0 {
		cfg.HBTimeout = 15 * time.Second
	}
	if cfg.MaxRestarts == 0 {
		cfg.MaxRestarts = 2
	}
	if cfg.KillWorker > cfg.Workers {
		return nil, fmt.Errorf("fleet: -kill-worker %d exceeds worker count %d", cfg.KillWorker, cfg.Workers)
	}
	c := &Coordinator{cfg: cfg}
	if reg := cfg.Obs; reg != nil {
		reg.Gauge("fleet_workers").Set(int64(cfg.Workers))
		reg.Gauge("fleet_shards_planned").Set(int64(cfg.Workers))
		c.hbTotal = reg.Counter(obs.WallPrefix + "fleet_heartbeats_total")
		c.rsTotal = reg.Counter(obs.WallPrefix + "fleet_restarts_total")
		c.live = reg.Gauge(obs.WallPrefix + "fleet_workers_live")
		c.flight = reg.Gauge(obs.WallPrefix + "fleet_inflight")
	}
	return c.run()
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		fmt.Fprintf(c.cfg.Log, format+"\n", args...)
	}
}

func (c *Coordinator) run() (*Result, error) {
	start := time.Now()
	sock, addr, err := dht.ListenLoopback(&c.mu)
	if err != nil {
		return nil, err
	}
	c.sock, c.addr = sock, addr
	defer func() {
		c.mu.Lock()
		sock.Close()
		c.mu.Unlock()
		sock.Wait()
	}()
	c.mu.Lock()
	sock.SetHandler(c.handle)
	c.mu.Unlock()

	shards, err := PlanShards(c.cfg.Workers)
	if err != nil {
		return nil, err
	}
	budgets := c.cfg.Budget.Split(c.cfg.Workers)
	c.logf("fleet: %d shards, control on 127.0.0.1:%d, budget %s",
		len(shards), addr.Port, c.cfg.Budget)

	c.shards = make([]*shardState, len(shards))
	c.mu.Lock()
	for i, sh := range shards {
		c.shards[i] = &shardState{spec: WorkerSpec{
			ID:            sh.Index,
			Shard:         sh,
			Seed:          c.cfg.Seed,
			Scale:         c.cfg.Scale,
			Duration:      c.cfg.Duration,
			Loss:          c.cfg.Loss,
			FaultScenario: c.cfg.FaultScenario,
			Budget:        budgets[i],
			ReportTo:      fmt.Sprintf("127.0.0.1:%d", addr.Port),
			HBInterval:    c.cfg.HBInterval,
		}}
		if err := c.launchLocked(c.shards[i]); err != nil {
			c.mu.Unlock()
			c.killAll()
			return nil, err
		}
	}
	c.mu.Unlock()

	if err := c.supervise(); err != nil {
		c.killAll()
		return nil, err
	}
	crawlElapsed := time.Since(start)

	res, err := c.merge()
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	if secs := crawlElapsed.Seconds(); secs > 0 {
		res.HostsPerSec = float64(res.Stats.UniqueIPs) / secs
	}
	if reg := c.cfg.Obs; reg != nil {
		reg.Gauge("fleet_merged_addrs").Set(int64(len(res.Merged)))
		if c.cfg.Budget.Rate > 0 && c.cfg.Duration > 0 {
			// Deterministic: sent counts and the budget are both pure
			// functions of the crawl inputs.
			allowed := c.cfg.Budget.Rate * c.cfg.Duration.Seconds()
			reg.Gauge("fleet_rate_budget_utilization_pct").Set(int64(float64(res.Stats.MessagesSent) / allowed * 100))
		}
		reg.Gauge(obs.WallPrefix + "fleet_merge_millis").Set(res.MergeElapsed.Milliseconds())
	}
	return res, nil
}

// launchLocked starts (or restarts) a shard's worker; c.mu held.
func (c *Coordinator) launchLocked(st *shardState) error {
	st.spec.Attempt++
	st.spec.OutFile = filepath.Join(c.cfg.Dir,
		fmt.Sprintf("shard_%dof%d_try%d.txt", st.spec.Shard.Index, st.spec.Shard.N, st.spec.Attempt))
	st.ready, st.exited, st.exitErr = false, false, nil
	st.launched = time.Now()
	st.lastHB = time.Time{}
	h, err := c.cfg.Runner.Start(st.spec)
	if err != nil {
		return fmt.Errorf("fleet: launching worker %d (%s): %w", st.spec.ID, st.spec.Shard, err)
	}
	st.handle = h
	if c.live != nil {
		c.live.Add(1)
	}
	c.logf("fleet: worker %d (shard %s) launched, attempt %d, pid %d",
		st.spec.ID, st.spec.Shard, st.spec.Attempt, h.Pid())
	go func(h WorkerHandle, st *shardState, attempt int) {
		err := h.Wait()
		c.mu.Lock()
		defer c.mu.Unlock()
		if st.spec.Attempt != attempt { // a newer attempt owns the state
			return
		}
		st.exited, st.exitErr = true, err
		st.exitAt = time.Now()
		if c.live != nil {
			c.live.Add(-1)
		}
	}(h, st, st.spec.Attempt)
	return nil
}

// handle processes worker datagrams; runs under c.mu (RealSocket contract).
func (c *Coordinator) handle(from netsim.Endpoint, payload []byte) {
	d, err := DecodeFrame(payload)
	if err != nil || d.IsAck {
		return
	}
	ack := func() {
		if frame, err := EncodeAck(d.TxID); err == nil {
			c.sock.Send(from, frame)
		}
	}
	switch d.Method {
	case MethodReady:
		var r Ready
		if DecodeArgs(d.Args, &r) != nil {
			return
		}
		if st := c.shardFor(r.Worker); st != nil {
			if !st.ready {
				st.ready = true
				st.lastHB = time.Now()
				c.logf("fleet: worker %d ready (shard %s, pid %d)", r.Worker, r.Shard, r.PID)
			}
			ack()
		}
	case MethodHB:
		var hb Heartbeat
		if DecodeArgs(d.Args, &hb) != nil {
			return
		}
		if st := c.shardFor(hb.Worker); st != nil {
			now := time.Now()
			if st.hbCount == 0 {
				st.firstHB = now
			}
			st.hbCount++
			st.lastHB = now
			st.lastSnap = hb
			if c.hbTotal != nil {
				c.hbTotal.Inc()
			}
			if c.flight != nil {
				var total int64
				for _, s := range c.shards {
					total += s.lastSnap.InFlight
				}
				c.flight.Set(total)
			}
		}
	case MethodDone:
		var dn Done
		if DecodeArgs(d.Args, &dn) != nil {
			return
		}
		st := c.shardFor(dn.Worker)
		// The merge reads the file the coordinator assigned to the current
		// attempt, never a path taken from a datagram: a report naming any
		// other file or shard is forged or stale, and is dropped unacked.
		if st == nil || dn.OutFile != st.spec.OutFile || dn.Shard != st.spec.Shard.String() {
			return
		}
		if st.done == nil {
			st.done = &dn
			c.logf("fleet: worker %d done (shard %s): %d NATed, %d msgs sent",
				dn.Worker, dn.Shard, dn.Stats.NATedIPs, dn.Stats.MessagesSent)
		}
		ack() // re-ack duplicates: the worker retries until heard
	}
}

func (c *Coordinator) shardFor(worker int) *shardState {
	if worker < 1 || worker > len(c.shards) {
		return nil
	}
	return c.shards[worker-1]
}

// supervise drives the wall-clock loop: chaos kills, crash and hang
// detection, bounded restart-and-reassign, and completion.
func (c *Coordinator) supervise() error {
	for {
		time.Sleep(poll)
		c.mu.Lock()
		now := time.Now()
		complete := true
		var failure error
		for _, st := range c.shards {
			if st.done != nil && st.exited {
				continue
			}
			complete = false

			// Chaos hook: kill the target worker once after its first
			// heartbeat (the crawl is demonstrably under way).
			if c.cfg.KillWorker == st.spec.ID && !st.killed && st.done == nil &&
				st.hbCount > 0 && now.Sub(st.firstHB) >= c.cfg.KillAfter {
				st.killed = true
				c.logf("fleet: chaos: killing worker %d (shard %s) mid-crawl", st.spec.ID, st.spec.Shard)
				_ = st.handle.Kill()
				continue
			}

			switch {
			case st.exited && st.done == nil && st.exitErr != nil:
				failure = c.restartLocked(st, fmt.Sprintf("exited: %v", st.exitErr))
			case st.exited && st.done == nil && now.Sub(st.exitAt) > doneGrace:
				failure = c.restartLocked(st, "exited cleanly but its final report never arrived")
			case !st.exited && st.done == nil && c.stale(st, now):
				c.logf("fleet: worker %d (shard %s) heartbeat stale, killing", st.spec.ID, st.spec.Shard)
				_ = st.handle.Kill()
				// The exit path restarts it.
			}
			if failure != nil {
				break
			}
		}
		c.mu.Unlock()
		if failure != nil {
			return failure
		}
		if complete {
			return nil
		}
	}
}

func (c *Coordinator) stale(st *shardState, now time.Time) bool {
	last := st.lastHB
	if last.IsZero() {
		last = st.launched
	}
	return now.Sub(last) > c.cfg.HBTimeout
}

// restartLocked relaunches a shard's worker, reassigning the shard and its
// budget share to the replacement; c.mu held. Returns an error once the
// restart budget is exhausted.
func (c *Coordinator) restartLocked(st *shardState, why string) error {
	if st.restarts >= c.cfg.MaxRestarts {
		return fmt.Errorf("fleet: worker %d (shard %s) failed %d times (last: %s); restart budget exhausted",
			st.spec.ID, st.spec.Shard, st.restarts+1, why)
	}
	st.restarts++
	if c.rsTotal != nil {
		c.rsTotal.Inc()
	}
	c.logf("fleet: worker %d (shard %s) %s; restarting (attempt %d/%d)",
		st.spec.ID, st.spec.Shard, why, st.spec.Attempt+1, c.cfg.MaxRestarts+1)
	return c.launchLocked(st)
}

func (c *Coordinator) killAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, st := range c.shards {
		if st.handle != nil && !st.exited {
			_ = st.handle.Kill()
		}
	}
}

// merge folds the shard reports into the fleet-wide result: observations
// through crawler.MergeObservations (max users per address), statistics
// through crawler.MergeStats with the union counts corrected for the one
// deliberate overlap (every shard may observe the bootstrap).
func (c *Coordinator) merge() (*Result, error) {
	mergeStart := time.Now()
	res := &Result{}
	var groups [][]crawler.NATObservation
	var stats []crawler.Stats
	uniqueIPs, uniqueIDs, multiPort, sawBootstrap := 0, 0, 0, 0
	c.mu.Lock()
	states := c.shards
	c.mu.Unlock()
	for _, st := range states {
		dn := st.done
		detected, err := readNATedFile(st.spec.OutFile)
		if err != nil {
			return nil, fmt.Errorf("fleet: reading worker %d observations: %w", st.spec.ID, err)
		}
		group := make([]crawler.NATObservation, 0, len(detected))
		for a, users := range detected {
			group = append(group, crawler.NATObservation{Addr: a, Users: users})
		}
		groups = append(groups, group)
		ws := dn.Stats.Stats()
		stats = append(stats, ws)
		uniqueIPs += ws.UniqueIPs
		uniqueIDs += ws.UniqueNodeIDs
		multiPort += ws.MultiPortIPs
		if dn.SawBootstrap != 0 {
			sawBootstrap++
		}
		res.TruePositives += int(dn.TruePositives)
		res.Restarts += st.restarts
		res.PerWorker = append(res.PerWorker, WorkerStatus{
			Worker:        st.spec.ID,
			Shard:         st.spec.Shard.String(),
			Attempts:      st.spec.Attempt,
			Restarts:      st.restarts,
			Killed:        st.killed,
			OutFile:       st.spec.OutFile,
			Stats:         ws,
			TruePositives: int(dn.TruePositives),
			SawBootstrap:  dn.SawBootstrap != 0,
			Heartbeats:    st.hbCount,
		})
	}
	sort.Slice(res.PerWorker, func(i, j int) bool { return res.PerWorker[i].Worker < res.PerWorker[j].Worker })

	res.Merged = crawler.MergeObservations(groups...)
	res.Stats = crawler.MergeStats(stats...)
	// The shards partition the address space, so per-shard unique sets are
	// disjoint except for the bootstrap, which every shard's scope admits:
	// subtract the extra sightings of its one IP and one node ID.
	overlap := 0
	if sawBootstrap > 1 {
		overlap = sawBootstrap - 1
	}
	res.Stats.UniqueIPs = uniqueIPs - overlap
	res.Stats.UniqueNodeIDs = uniqueIDs - overlap
	res.Stats.MultiPortIPs = multiPort
	res.Stats.NATedIPs = len(res.Merged)

	if c.cfg.OutFile != "" {
		detected := make(map[iputil.Addr]int, len(res.Merged))
		for _, o := range res.Merged {
			detected[o.Addr] = o.Users
		}
		if err := WriteOut(c.cfg.OutFile, detected, c.cfg.Log); err != nil {
			return nil, err
		}
	}
	res.MergeElapsed = time.Since(mergeStart)
	return res, nil
}

// readNATedFile loads one shard observation file (addr<TAB>users).
func readNATedFile(path string) (map[iputil.Addr]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return blocklist.ParseNATedList(f)
}
