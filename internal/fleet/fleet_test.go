package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/crawler"
	"github.com/reuseblock/reuseblock/internal/dht"
	"github.com/reuseblock/reuseblock/internal/faults"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/netsim"
	"github.com/reuseblock/reuseblock/internal/obs"
)

// Test world: small enough that a full shard crawl runs in ~200ms, large
// enough to detect dozens of NATed addresses.
const (
	testSeed     = int64(1)
	testScale    = 0.05
	testDuration = 8 * time.Hour
	testLoss     = 0.28
)

func testConfig(t *testing.T, workers int) Config {
	t.Helper()
	dir := t.TempDir()
	return Config{
		Workers:    workers,
		Seed:       testSeed,
		Scale:      testScale,
		Duration:   testDuration,
		Loss:       testLoss,
		Runner:     LocalRunner{},
		Dir:        dir,
		OutFile:    filepath.Join(dir, "merged.txt"),
		HBInterval: 25 * time.Millisecond,
	}
}

// baselineMerged runs each shard crawl independently — no coordinator, no
// control plane, no chunking — writes the shard files, merges them the way
// the coordinator does, and returns the merged file's bytes. This is the
// equivalence oracle: the fleet machinery must be invisible in the output.
func baselineMerged(t *testing.T, workers int, scenarioName string) []byte {
	t.Helper()
	scenario, err := faults.Lookup(scenarioName)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	shards, err := PlanShards(workers)
	if err != nil {
		t.Fatal(err)
	}
	var groups [][]crawler.NATObservation
	for _, sh := range shards {
		res, err := RunCrawl(CrawlJob{
			Seed: testSeed, Scale: testScale, Duration: testDuration, Loss: testLoss,
			Scenario: scenario, Shard: sh,
		})
		if err != nil {
			t.Fatalf("shard %s: %v", sh, err)
		}
		path := filepath.Join(dir, strings.ReplaceAll(sh.String(), "/", "of")+".txt")
		if err := WriteOut(path, res.Detected, nil); err != nil {
			t.Fatal(err)
		}
		detected, err := readNATedFile(path)
		if err != nil {
			t.Fatal(err)
		}
		group := make([]crawler.NATObservation, 0, len(detected))
		for a, users := range detected {
			group = append(group, crawler.NATObservation{Addr: a, Users: users})
		}
		groups = append(groups, group)
	}
	merged := crawler.MergeObservations(groups...)
	detected := make(map[iputil.Addr]int, len(merged))
	for _, o := range merged {
		detected[o.Addr] = o.Users
	}
	out := filepath.Join(dir, "baseline_merged.txt")
	if err := WriteOut(out, detected, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFleetEquivalence is the headline invariant: for N ∈ {1, 2, 4}, the
// coordinator's merged output is byte-identical to independently run shard
// crawls merged by hand — process supervision, the UDP control plane,
// heartbeat chunking and the merge step all leave no trace in the data.
func TestFleetEquivalence(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		cfg := testConfig(t, n)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		got, err := os.ReadFile(cfg.OutFile)
		if err != nil {
			t.Fatal(err)
		}
		want := baselineMerged(t, n, "")
		if !bytes.Equal(got, want) {
			t.Fatalf("N=%d: fleet merged output differs from independent shard merge\nfleet:\n%s\nbaseline:\n%s", n, got, want)
		}
		if res.Restarts != 0 {
			t.Fatalf("N=%d: unexpected restarts: %d", n, res.Restarts)
		}
		if len(res.PerWorker) != n {
			t.Fatalf("N=%d: %d worker statuses", n, len(res.PerWorker))
		}
		for _, w := range res.PerWorker {
			if w.Attempts != 1 || w.Heartbeats == 0 {
				t.Fatalf("N=%d: worker %d: attempts=%d heartbeats=%d", n, w.Worker, w.Attempts, w.Heartbeats)
			}
		}
		if res.Stats.NATedIPs != len(res.Merged) || len(res.Merged) == 0 {
			t.Fatalf("N=%d: merged stats inconsistent: NATedIPs=%d merged=%d", n, res.Stats.NATedIPs, len(res.Merged))
		}
	}
}

// TestFleetEquivalenceBursty repeats the equivalence check under the bursty
// fault scenario: fault injection is seeded per shard crawl, so the fleet
// remains byte-reproducible even on a lossy, bursty network.
func TestFleetEquivalenceBursty(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.FaultScenario = "bursty"
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(cfg.OutFile)
	if err != nil {
		t.Fatal(err)
	}
	want := baselineMerged(t, 2, "bursty")
	if !bytes.Equal(got, want) {
		t.Fatalf("bursty fleet merged output differs from independent shard merge\nfleet:\n%s\nbaseline:\n%s", got, want)
	}
}

// TestFleetSingleWorkerMatchesPlainCrawl: fleet(1) output is byte-identical
// to an unsharded, un-coordinated crawl — and its merged statistics equal
// the single crawl's statistics field for field (the union corrections must
// collapse to no-ops).
func TestFleetSingleWorkerMatchesPlainCrawl(t *testing.T) {
	cfg := testConfig(t, 1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(cfg.OutFile)
	if err != nil {
		t.Fatal(err)
	}

	plain, err := RunCrawl(CrawlJob{Seed: testSeed, Scale: testScale, Duration: testDuration, Loss: testLoss})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	want := filepath.Join(dir, "plain.txt")
	if err := WriteOut(want, plain.Detected, nil); err != nil {
		t.Fatal(err)
	}
	wantData, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantData) {
		t.Fatalf("fleet(1) output differs from plain crawl\nfleet:\n%s\nplain:\n%s", got, wantData)
	}
	if !reflect.DeepEqual(res.Stats, plain.Stats) {
		t.Fatalf("fleet(1) merged stats differ from plain crawl stats:\n got %+v\nwant %+v", res.Stats, plain.Stats)
	}
	if res.TruePositives != plain.TruePositives {
		t.Fatalf("fleet(1) true positives %d, plain %d", res.TruePositives, plain.TruePositives)
	}
}

// TestFleetKillWorkerRestart kills worker 2 mid-crawl via the chaos hook
// and verifies the coordinator restarts the shard and the merged output is
// still byte-identical to the undisturbed baseline: a worker crash costs
// wall time, never data.
func TestFleetKillWorkerRestart(t *testing.T) {
	cfg := testConfig(t, 2)
	// A longer crawl so the kill lands mid-flight, before the worker
	// finishes (the chaos hook waits for the first heartbeat).
	cfg.Duration = 48 * time.Hour
	cfg.Scale = 0.08
	cfg.KillWorker = 2
	cfg.HBInterval = 10 * time.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts < 1 {
		t.Fatalf("expected at least one restart, got %d", res.Restarts)
	}
	w2 := res.PerWorker[1]
	if !w2.Killed || w2.Attempts < 2 {
		t.Fatalf("worker 2 status: killed=%v attempts=%d", w2.Killed, w2.Attempts)
	}

	// The undisturbed fleet must produce identical bytes.
	calm := testConfig(t, 2)
	calm.Duration = cfg.Duration
	calm.Scale = cfg.Scale
	if _, err := Run(calm); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(cfg.OutFile)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(calm.OutFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("merged output changed after a mid-crawl worker kill + restart")
	}
}

// TestFleetBudgetDeterministic: a rate-budgeted fleet still produces
// identical output across runs (the token bucket rides the simulation
// clock), and the budget demonstrably throttles the crawl.
func TestFleetBudgetDeterministic(t *testing.T) {
	run := func() ([]byte, crawler.Stats) {
		cfg := testConfig(t, 2)
		cfg.Budget = Budget{Rate: 0.05, MaxInflight: 8} // aggregate: one query per 20s of sim time
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(cfg.OutFile)
		if err != nil {
			t.Fatal(err)
		}
		return data, res.Stats
	}
	a, aStats := run()
	b, bStats := run()
	if !bytes.Equal(a, b) {
		t.Fatal("budgeted fleet output not reproducible")
	}
	if !reflect.DeepEqual(aStats, bStats) {
		t.Fatalf("budgeted fleet stats not reproducible:\n%+v\n%+v", aStats, bStats)
	}

	free, err := Run(testConfig(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if aStats.MessagesSent >= free.Stats.MessagesSent {
		t.Fatalf("budget did not throttle: budgeted sent %d, unlimited sent %d",
			aStats.MessagesSent, free.Stats.MessagesSent)
	}
}

// TestFleetObsDeterminism pins the observability contract: the
// deterministic metric namespace is identical across two runs of the same
// fleet, while the wall-clock namespace (heartbeats, restarts, merge
// latency) is present but excluded from the deterministic snapshot.
func TestFleetObsDeterminism(t *testing.T) {
	snap := func() ([]obs.Metric, string) {
		reg := obs.NewRegistry()
		cfg := testConfig(t, 2)
		cfg.Obs = reg
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return reg.DeterministicSnapshot(), reg.RenderText(true)
	}
	detA, fullA := snap()
	detB, _ := snap()
	if !reflect.DeepEqual(detA, detB) {
		t.Fatalf("deterministic fleet metrics diverged across identical runs:\n%+v\n%+v", detA, detB)
	}
	for _, name := range []string{"fleet_workers", "fleet_shards_planned", "fleet_merged_addrs"} {
		found := false
		for _, m := range detA {
			if m.Name == name {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("deterministic snapshot missing %s:\n%+v", name, detA)
		}
	}
	for _, name := range []string{"wall_fleet_heartbeats_total", "wall_fleet_workers_live", "wall_fleet_merge_millis"} {
		if !strings.Contains(fullA, name) {
			t.Fatalf("full render missing %s:\n%s", name, fullA)
		}
	}
	for _, m := range detA {
		if strings.HasPrefix(m.Name, obs.WallPrefix) {
			t.Fatalf("wall metric %s leaked into the deterministic snapshot", m.Name)
		}
	}
}

// TestRunCrawlChunkingNeutral: slicing the simulated run into heartbeat
// chunks never changes the crawl's output — the property that lets workers
// publish progress without perturbing determinism.
func TestRunCrawlChunkingNeutral(t *testing.T) {
	whole, err := RunCrawl(CrawlJob{Seed: testSeed, Scale: testScale, Duration: testDuration, Loss: testLoss})
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	chunked, err := RunCrawl(CrawlJob{
		Seed: testSeed, Scale: testScale, Duration: testDuration, Loss: testLoss,
		Chunk:    17 * time.Minute, // deliberately odd: duration is not a multiple
		Progress: func(Snapshot) { snaps++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if snaps == 0 {
		t.Fatal("progress callback never ran")
	}
	if !reflect.DeepEqual(whole.Stats, chunked.Stats) {
		t.Fatalf("chunking changed stats:\n got %+v\nwant %+v", chunked.Stats, whole.Stats)
	}
	if !reflect.DeepEqual(whole.Detected, chunked.Detected) {
		t.Fatal("chunking changed detections")
	}
}

// TestRunCrawlCancel: closing Cancel stops the crawl at a chunk boundary
// and flags the result, without error — crash semantics for LocalRunner.
func TestRunCrawlCancel(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	res, err := RunCrawl(CrawlJob{
		Seed: testSeed, Scale: testScale, Duration: testDuration, Loss: testLoss,
		Chunk:  time.Hour,
		Cancel: cancel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Fatal("pre-cancelled crawl not flagged Cancelled")
	}
}

// TestCoordinatorIgnoresForgedDone: a fleet_done naming a file or shard the
// coordinator did not assign to the current attempt is not recorded, the
// genuine report still completes the shard, and the merge reads the
// assigned path — never a path taken from a datagram.
func TestCoordinatorIgnoresForgedDone(t *testing.T) {
	dir := t.TempDir()
	assigned := filepath.Join(dir, "shard_1of1_try1.txt")
	decoy := filepath.Join(dir, "decoy.txt")
	if err := WriteOut(assigned, map[iputil.Addr]int{iputil.MustParseAddr("10.0.0.1"): 3}, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteOut(decoy, map[iputil.Addr]int{iputil.MustParseAddr("10.9.9.9"): 7}, nil); err != nil {
		t.Fatal(err)
	}

	c := &Coordinator{}
	sock, _, err := dht.ListenLoopback(&c.mu)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		c.mu.Lock()
		sock.Close()
		c.mu.Unlock()
		sock.Wait()
	}()
	c.sock = sock
	st := &shardState{spec: WorkerSpec{ID: 1, Attempt: 1, Shard: ShardSpec{Index: 1, N: 1}, OutFile: assigned}}
	c.shards = []*shardState{st}

	deliver := func(d Done) {
		t.Helper()
		frame, err := EncodeQuery("t1", MethodDone, &d)
		if err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		c.handle(netsim.Endpoint{Addr: iputil.MustParseAddr("127.0.0.1"), Port: 9}, frame)
	}
	for _, forged := range []Done{
		{Worker: 1, Shard: "1/1", OutFile: decoy},
		{Worker: 1, Shard: "1/1"},
		{Worker: 1, Shard: "1/2", OutFile: assigned},
	} {
		deliver(forged)
		if st.done != nil {
			t.Fatalf("forged report %+v was recorded", forged)
		}
	}
	deliver(Done{Worker: 1, Shard: "1/1", OutFile: assigned, Stats: WireStats{NATedIPs: 1}})
	if st.done == nil {
		t.Fatal("genuine report was not recorded")
	}
	st.exited = true

	res, err := c.merge()
	if err != nil {
		t.Fatal(err)
	}
	want := []crawler.NATObservation{{Addr: iputil.MustParseAddr("10.0.0.1"), Users: 3}}
	if !reflect.DeepEqual(res.Merged, want) || res.PerWorker[0].OutFile != assigned {
		t.Fatalf("merge read %+v from %s, want %+v from %s", res.Merged, res.PerWorker[0].OutFile, want, assigned)
	}
}
