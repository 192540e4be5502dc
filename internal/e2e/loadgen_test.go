package e2e

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestLoadGenCountsRequestsAndErrors runs the check workload against a stub
// that fails every request for one address: the result's request count
// matches what the server saw, non-200 answers are errors, and latency
// percentiles come from the successes.
func TestLoadGenCountsRequestsAndErrors(t *testing.T) {
	var seen, failed atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen.Add(1)
		if r.Method != http.MethodGet || r.URL.Path != "/v1/check" {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
		if r.URL.Query().Get("ip") == "5.6.7.8" {
			failed.Add(1)
			http.Error(w, "no", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"ip":"1.2.3.4","reused":false}`))
	}))
	defer ts.Close()

	res, err := LoadGen{
		BaseURL:     ts.URL,
		Targets:     []string{"1.2.3.4", "5.6.7.8"},
		Concurrency: 4,
		Duration:    150 * time.Millisecond,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.Requests != int(seen.Load()) {
		t.Fatalf("result counts %d requests, server saw %d", res.Requests, seen.Load())
	}
	if res.Errors != int(failed.Load()) || res.Errors == 0 || res.Errors == res.Requests {
		t.Fatalf("errors = %d, server failed %d of %d", res.Errors, failed.Load(), res.Requests)
	}
	if res.RPS <= 0 || res.P50Ms <= 0 || res.P99Ms < res.P50Ms || res.MaxMs < res.P99Ms {
		t.Fatalf("implausible rate or latency: %+v", res)
	}
}

// TestLoadGenDatasetRoutes pins the multi-dataset spread: workers cycle
// round-robin over the named routes, and "" is the unprefixed default.
func TestLoadGenDatasetRoutes(t *testing.T) {
	var alpha, def atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/alpha/check":
			alpha.Add(1)
		case "/v1/check":
			def.Add(1)
		default:
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	res, err := LoadGen{BaseURL: ts.URL, Targets: []string{"1.2.3.4"}, Concurrency: 2,
		Duration: 50 * time.Millisecond, Datasets: []string{"alpha", ""}}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || alpha.Load() == 0 || def.Load() == 0 {
		t.Fatalf("errors=%d alpha=%d default=%d; want both routes hit cleanly",
			res.Errors, alpha.Load(), def.Load())
	}
}

func TestLoadGenValidation(t *testing.T) {
	base := LoadGen{BaseURL: "http://127.0.0.1:0", Targets: []string{"1.2.3.4"},
		Concurrency: 1, Duration: time.Millisecond}
	for name, lg := range map[string]LoadGen{
		"no targets":     {BaseURL: base.BaseURL, Concurrency: 1, Duration: time.Millisecond},
		"no concurrency": {BaseURL: base.BaseURL, Targets: base.Targets, Duration: time.Millisecond},
		"no duration":    {BaseURL: base.BaseURL, Targets: base.Targets, Concurrency: 1},
	} {
		if _, err := lg.Run(); err == nil {
			t.Errorf("%s: Run accepted an invalid config", name)
		}
	}
}

func TestAppendRecordRejectsCorruptHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_e2e.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := AppendBenchRecord(path, BenchRecord{Scenario: "x"})
	if err == nil || !strings.Contains(err.Error(), "not a bench-record array") {
		t.Fatalf("append onto a corrupt history file: err = %v", err)
	}
	// The corrupt file must be left untouched for post-mortem, not clobbered.
	if data, _ := os.ReadFile(path); string(data) != "not json" {
		t.Fatalf("corrupt history was rewritten to %q", data)
	}
}
