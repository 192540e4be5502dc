package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/reuseblock/reuseblock/internal/reuseapi"
)

// LoadGen drives a live stack at fixed concurrency for a fixed duration,
// each worker cycling through Targets, and reports latency percentiles plus
// error and shed rates. The default workload is the zero-alloc GET
// /v1/check path; BatchFraction mixes in POST batch checks (the expensive
// endpoint class), ClientIPs simulates a client mix for rate-limit
// scenarios, and PerWorkerRPS paces workers below saturation.
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

	// BatchFraction in [0,1] is the share of workers dedicated to POST
	// batch checks of BatchSize addresses (the heavy endpoint class); the
	// rest stay closed-loop single GET clients (the cheap class). The
	// split is per worker, not per request, so the cheap clients' goodput
	// is not serialized behind the expensive flood — they model the
	// bystander traffic an overload scenario measures collateral damage
	// against. 0 keeps the legacy GET-only workload.
	BatchFraction float64
	// BatchSize is the number of addresses per batch POST (default 100).
	BatchSize int
	// ClientIPs, when set, are assigned to workers round-robin and sent as
	// X-Forwarded-For, so a -shed-trust-forwarded server observes a client
	// mix — repeats model a CGNAT-style hot key emitting more than its
	// share.
	ClientIPs []string
	// PerWorkerRPS paces each worker to at most this request rate
	// (0 = closed-loop flat out).
	PerWorkerRPS float64
}

// ClassStats is one endpoint class's slice of a load run.
type ClassStats struct {
	Requests int     `json:"requests"`
	OK       int     `json:"ok"`
	Shed     int     `json:"shed"`
	Errors   int     `json:"errors"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

// ClientStats is one simulated client's slice of a load run.
type ClientStats struct {
	Requests int `json:"requests"`
	OK       int `json:"ok"`
	Shed     int `json:"shed"`
	Errors   int `json:"errors"`
}

// LoadResult summarizes one load-generation run. Latency percentiles cover
// successful (200) responses only; Shed counts well-formed overload
// rejections (429/503 with the documented Error body and a Retry-After),
// which are the resilience layer working as designed — only
// MalformedShed and Errors indicate trouble.
type LoadResult struct {
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	RPS      float64 `json:"rps"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MaxMs    float64 `json:"max_ms"`

	// Shed counts well-formed 429/503 rejections; MalformedShed counts
	// 429/503 responses missing the documented Error shape or Retry-After
	// (always a bug). GoodputRPS is successful responses per second.
	Shed          int     `json:"shed,omitempty"`
	MalformedShed int     `json:"malformed_shed,omitempty"`
	GoodputRPS    float64 `json:"goodput_rps,omitempty"`

	// PerClass splits the run by endpoint class ("cheap" single GETs,
	// "heavy" batch POSTs); present when the run mixed classes or shed.
	PerClass map[string]ClassStats `json:"per_class,omitempty"`
	// PerClient splits the run by simulated client; present when ClientIPs
	// was set.
	PerClient map[string]ClientStats `json:"per_client,omitempty"`
}

// sample is one request's outcome, tagged for aggregation.
type sample struct {
	class  string // "cheap" or "heavy"
	client string // X-Forwarded-For value, "" when unset
	lat    time.Duration
	ok     bool
	shed   bool // well-formed 429/503
	badsh  bool // malformed 429/503
}

// Run generates the load and aggregates per-worker samples.
func (lg LoadGen) Run() (LoadResult, error) {
	if lg.Concurrency <= 0 || lg.Duration <= 0 || len(lg.Targets) == 0 {
		return LoadResult{}, fmt.Errorf("e2e: loadgen needs targets, concurrency and duration")
	}
	if lg.BatchFraction < 0 || lg.BatchFraction > 1 {
		return LoadResult{}, fmt.Errorf("e2e: batch fraction %g outside [0,1]", lg.BatchFraction)
	}
	batchSize := lg.BatchSize
	if batchSize <= 0 {
		batchSize = 100
	}
	client := &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: lg.Concurrency,
		},
	}

	// One batch body per worker, built outside the hot loop: the batch
	// content is load, not the thing under test.
	var batchBody []byte
	if lg.BatchFraction > 0 {
		ips := make([]string, batchSize)
		for i := range ips {
			ips[i] = lg.Targets[i%len(lg.Targets)]
		}
		var err error
		batchBody, err = json.Marshal(ips)
		if err != nil {
			return LoadResult{}, err
		}
	}
	// The first nBatch workers are the batch flood; at least one when a
	// fraction was asked for at all.
	nBatch := 0
	if lg.BatchFraction > 0 {
		nBatch = int(lg.BatchFraction*float64(lg.Concurrency) + 0.5)
		if nBatch < 1 {
			nBatch = 1
		}
		if nBatch > lg.Concurrency {
			nBatch = lg.Concurrency
		}
	}

	perWorker := make([][]sample, lg.Concurrency)
	deadline := time.Now().Add(lg.Duration)
	var interval time.Duration
	if lg.PerWorkerRPS > 0 {
		interval = time.Duration(float64(time.Second) / lg.PerWorkerRPS)
	}
	var wg sync.WaitGroup
	for w := 0; w < lg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clientIP := ""
			if len(lg.ClientIPs) > 0 {
				clientIP = lg.ClientIPs[w%len(lg.ClientIPs)]
			}
			checkPath := "/v1/check"
			if len(lg.Datasets) > 0 {
				if ds := lg.Datasets[w%len(lg.Datasets)]; ds != "" {
					checkPath = "/v1/" + ds + "/check"
				}
			}
			next := time.Now()
			for i := w; time.Now().Before(deadline); i++ {
				if interval > 0 {
					if now := time.Now(); next.After(now) {
						time.Sleep(next.Sub(now))
					}
					next = next.Add(interval)
					if !time.Now().Before(deadline) {
						return
					}
				}
				s := sample{class: "cheap", client: clientIP}
				var req *http.Request
				var err error
				if w < nBatch {
					s.class = "heavy"
					req, err = http.NewRequest(http.MethodPost, lg.BaseURL+checkPath,
						bytes.NewReader(batchBody))
					if req != nil {
						req.Header.Set("Content-Type", "application/json")
					}
				} else {
					url := lg.BaseURL + checkPath + "?ip=" + lg.Targets[i%len(lg.Targets)]
					req, err = http.NewRequest(http.MethodGet, url, nil)
				}
				if err != nil {
					perWorker[w] = append(perWorker[w], s)
					continue
				}
				if clientIP != "" {
					req.Header.Set("X-Forwarded-For", clientIP)
				}
				start := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					perWorker[w] = append(perWorker[w], s)
					continue
				}
				body, cerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case cerr != nil:
				case resp.StatusCode == http.StatusOK:
					s.ok = true
					s.lat = time.Since(start)
				case resp.StatusCode == http.StatusTooManyRequests ||
					resp.StatusCode == http.StatusServiceUnavailable:
					if shedWellFormed(resp, body) {
						s.shed = true
					} else {
						s.badsh = true
					}
				}
				perWorker[w] = append(perWorker[w], s)
			}
		}(w)
	}
	started := time.Now()
	wg.Wait()
	elapsed := time.Since(started)
	if elapsed < lg.Duration {
		elapsed = lg.Duration
	}
	return aggregate(perWorker, elapsed, lg.BatchFraction > 0, len(lg.ClientIPs) > 0), nil
}

// shedWellFormed checks a 429/503 against the documented contract: a JSON
// Error body with a non-empty error field, and a Retry-After header parsing
// to a positive integer.
func shedWellFormed(resp *http.Response, body []byte) bool {
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		return false
	}
	var e reuseapi.Error
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		return false
	}
	return true
}

// aggregate folds per-worker samples into the result.
func aggregate(perWorker [][]sample, elapsed time.Duration, withClasses, withClients bool) LoadResult {
	res := LoadResult{}
	var all []time.Duration
	classLat := map[string][]time.Duration{}
	classes := map[string]ClassStats{}
	clients := map[string]ClientStats{}
	good := 0
	for _, ws := range perWorker {
		for _, s := range ws {
			res.Requests++
			cs := classes[s.class]
			cs.Requests++
			cl := clients[s.client]
			cl.Requests++
			switch {
			case s.ok:
				good++
				cs.OK++
				cl.OK++
				all = append(all, s.lat)
				classLat[s.class] = append(classLat[s.class], s.lat)
			case s.shed:
				res.Shed++
				cs.Shed++
				cl.Shed++
			default:
				if s.badsh {
					res.MalformedShed++
				}
				res.Errors++
				cs.Errors++
				cl.Errors++
			}
			classes[s.class] = cs
			clients[s.client] = cl
		}
	}
	res.RPS = float64(res.Requests) / elapsed.Seconds()
	res.GoodputRPS = float64(good) / elapsed.Seconds()
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.P50Ms = percentileMs(all, 0.50)
	res.P95Ms = percentileMs(all, 0.95)
	res.P99Ms = percentileMs(all, 0.99)
	if n := len(all); n > 0 {
		res.MaxMs = durMs(all[n-1])
	}
	if withClasses || res.Shed > 0 || res.MalformedShed > 0 {
		for name, cs := range classes {
			lat := classLat[name]
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			cs.P50Ms = percentileMs(lat, 0.50)
			cs.P95Ms = percentileMs(lat, 0.95)
			cs.P99Ms = percentileMs(lat, 0.99)
			classes[name] = cs
		}
		res.PerClass = classes
	}
	if withClients {
		res.PerClient = clients
	}
	return res
}

// RunRamp runs the same workload once per concurrency step, sequentially,
// returning one result per step — a concurrency ramp for finding the knee
// where goodput stops scaling.
func (lg LoadGen) RunRamp(steps []int) ([]LoadResult, error) {
	out := make([]LoadResult, 0, len(steps))
	for _, c := range steps {
		run := lg
		run.Concurrency = c
		res, err := run.Run()
		if err != nil {
			return out, fmt.Errorf("e2e: ramp step %d: %w", c, err)
		}
		out = append(out, res)
	}
	return out, nil
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

// ShedBenchRecord is one BENCH_shed.json entry: an overload scenario's
// goodput against measured capacity, for the resilience ratchet.
type ShedBenchRecord struct {
	Scenario    string  `json:"scenario"`
	When        string  `json:"when"` // RFC3339
	Seed        int64   `json:"seed"`
	Scale       float64 `json:"scale"`
	Concurrency int     `json:"concurrency"`
	DurationSec float64 `json:"duration_sec"`
	// CapacityRPS is the measured single-client goodput baseline;
	// GoodputShare is GoodputRPS/CapacityRPS — the SLO band the overload
	// scenario asserts on.
	CapacityRPS  float64 `json:"capacity_rps"`
	GoodputRPS   float64 `json:"goodput_rps"`
	GoodputShare float64 `json:"goodput_share"`
	P99Ms        float64 `json:"p99_ms"`
	Shed         int     `json:"shed"`
	Errors       int     `json:"errors"`
}

// AppendBenchRecord appends rec to the JSON array at path, creating the file
// when absent. The rewrite is atomic so a crashed run cannot truncate the
// history.
func AppendBenchRecord(path string, rec BenchRecord) error {
	return appendRecord(path, rec)
}

// AppendShedBenchRecord is AppendBenchRecord for the shed ratchet file.
func AppendShedBenchRecord(path string, rec ShedBenchRecord) error {
	return appendRecord(path, rec)
}

func appendRecord[T any](path string, rec T) error {
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
