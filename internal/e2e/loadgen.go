package e2e

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// LoadGen drives a live stack at fixed concurrency for a fixed duration,
// each worker cycling through Targets with closed-loop GET /v1/check
// requests (the zero-alloc path), and reports the request and error counts.
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

// LoadResult summarizes one load-generation run: every answer other than a
// fully read 200 is an error.
type LoadResult struct {
	Requests int
	Errors   int
}

// Run generates the load and sums the per-worker counts.
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

	oks := make([]int, lg.Concurrency)
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
				oks[w]++
			}
		}(w)
	}
	wg.Wait()
	var res LoadResult
	for w := range oks {
		res.Requests += oks[w] + errs[w]
		res.Errors += errs[w]
	}
	return res, nil
}
