package e2e

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// LoadGen drives a live stack at fixed concurrency for a fixed duration,
// each worker cycling through Targets with closed-loop GET /v1/check
// requests (the zero-alloc path), and reports latency percentiles plus the
// error count.
type LoadGen struct {
	BaseURL     string
	Targets     []string // ip query values, cycled per worker
	Concurrency int
	Duration    time.Duration

	// Datasets, when set, spreads workers round-robin across the named
	// datasets' /v1/{name}/check routes of a multi-dataset server; the
	// empty string targets the unprefixed default route. Empty keeps the
	// single-route workload.
	Datasets []string
}

// LoadResult summarizes one load-generation run. Latency percentiles cover
// successful (200) responses only; every other outcome is an error.
type LoadResult struct {
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	RPS      float64 `json:"rps"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MaxMs    float64 `json:"max_ms"`
}

// Run generates the load and aggregates per-worker latencies.
func (lg LoadGen) Run() (LoadResult, error) {
	if lg.Concurrency <= 0 || lg.Duration <= 0 || len(lg.Targets) == 0 {
		return LoadResult{}, fmt.Errorf("e2e: loadgen needs targets, concurrency and duration")
	}
	client := &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: lg.Concurrency,
		},
	}

	lats := make([][]time.Duration, lg.Concurrency)
	errs := make([]int, lg.Concurrency)
	deadline := time.Now().Add(lg.Duration)
	var wg sync.WaitGroup
	for w := 0; w < lg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			checkPath := "/v1/check"
			if len(lg.Datasets) > 0 {
				if ds := lg.Datasets[w%len(lg.Datasets)]; ds != "" {
					checkPath = "/v1/" + ds + "/check"
				}
			}
			for i := w; time.Now().Before(deadline); i++ {
				url := lg.BaseURL + checkPath + "?ip=" + lg.Targets[i%len(lg.Targets)]
				start := time.Now()
				resp, err := client.Get(url)
				if err != nil {
					errs[w]++
					continue
				}
				_, cerr := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if cerr != nil || resp.StatusCode != http.StatusOK {
					errs[w]++
					continue
				}
				lats[w] = append(lats[w], time.Since(start))
			}
		}(w)
	}
	started := time.Now()
	wg.Wait()
	elapsed := time.Since(started)
	if elapsed < lg.Duration {
		elapsed = lg.Duration
	}
	return aggregate(lats, errs, elapsed), nil
}

// aggregate folds per-worker latencies and error counts into the result.
func aggregate(lats [][]time.Duration, errs []int, elapsed time.Duration) LoadResult {
	res := LoadResult{}
	var all []time.Duration
	for w, ws := range lats {
		all = append(all, ws...)
		res.Errors += errs[w]
	}
	res.Requests = len(all) + res.Errors
	res.RPS = float64(res.Requests) / elapsed.Seconds()
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.P50Ms = percentileMs(all, 0.50)
	res.P95Ms = percentileMs(all, 0.95)
	res.P99Ms = percentileMs(all, 0.99)
	if n := len(all); n > 0 {
		res.MaxMs = durMs(all[n-1])
	}
	return res
}

// percentileMs reads the p-quantile (nearest-rank) from sorted samples.
func percentileMs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return durMs(sorted[idx])
}

func durMs(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}

// BenchRecord is one BENCH_e2e.json entry: a load-gen result with enough
// context (scenario, world, concurrency) to compare across runs. The file is
// an append-only JSON array so the nightly job accumulates a history.
type BenchRecord struct {
	Scenario    string  `json:"scenario"`
	When        string  `json:"when"` // RFC3339
	Seed        int64   `json:"seed"`
	Scale       float64 `json:"scale"`
	Concurrency int     `json:"concurrency"`
	DurationSec float64 `json:"duration_sec"`
	LoadResult
}

// AppendBenchRecord appends rec to the JSON array at path, creating the file
// when absent. The rewrite is atomic so a crashed run cannot truncate the
// history.
func AppendBenchRecord(path string, rec BenchRecord) error {
	var recs []json.RawMessage
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &recs); err != nil {
			return fmt.Errorf("e2e: existing %s is not a bench-record array: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	recs = append(recs, raw)
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, append(data, '\n'))
}
