package e2e

// Unit tests for the harness pieces that need no process boot: config
// defaulting, dataset-file knobs, and the Stack HTTP helpers against an
// in-process stand-in server. The e2e-tagged scenarios exercise all of
// these against real processes, but only these tests run on every push.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

func TestStackConfigWithDefaults(t *testing.T) {
	d := StackConfig{}.withDefaults()
	if d.Scale == 0 || d.CrawlDuration == 0 ||
		d.WatchInterval == 0 || d.BootTimeout == 0 {
		t.Errorf("zero config not fully defaulted: %+v", d)
	}
	set := StackConfig{Seed: 7, Scale: 0.5, CrawlDuration: time.Hour,
		WatchInterval: time.Second, BootTimeout: time.Minute}
	if got := set.withDefaults(); !reflect.DeepEqual(got, set) {
		t.Errorf("explicit config altered by defaulting: %+v -> %+v", set, got)
	}
}

func TestStackNATedInputKnobs(t *testing.T) {
	s := &Stack{NatedPath: filepath.Join(t.TempDir(), "nated.txt")}
	users := map[iputil.Addr]int{
		iputil.MustParseAddr("100.64.0.1"): 5,
		iputil.MustParseAddr("100.64.0.2"): 3,
	}
	if err := s.RewriteNATedInput(users, "unit"); err != nil {
		t.Fatal(err)
	}
	got, err := s.ServedNATedInput()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, users) {
		t.Errorf("rewrite/read round trip: wrote %v, read %v", users, got)
	}

	before, err := os.ReadFile(s.NatedPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.TouchNATedInput(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(s.NatedPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("touch changed the file content")
	}

	if err := s.CorruptNATedInput(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ServedNATedInput(); err == nil {
		t.Error("corrupted input still parsed")
	}
}

// stubAPI serves just enough of the blserve surface for the Stack helpers.
func stubAPI() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"nated_addresses":2}`)
	})
	mux.HandleFunc("/debug/manifest", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"seed":42}`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "api_checks_total 7\nwall_dataset_reloads_total 0\n")
	})
	mux.HandleFunc("/v1/check", func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			fmt.Fprint(w, `[{"ip":"100.64.0.1","reused":true},{"ip":"8.8.8.8","reused":false}]`)
			return
		}
		fmt.Fprint(w, `{"ip":"100.64.0.1","reused":true}`)
	})
	mux.HandleFunc("/v1/list", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"abc"`)
		fmt.Fprint(w, "# header\n100.64.0.1\tusers>=5\n100.64.0.2\tusers>=3\n")
	})
	mux.HandleFunc("/v1/prefixes", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "203.0.113.0/24\n")
	})
	return mux
}

func TestStackHTTPHelpers(t *testing.T) {
	ts := httptest.NewServer(stubAPI())
	defer ts.Close()
	s := &Stack{BaseURL: ts.URL, client: ts.Client()}

	st, err := s.Stats()
	if err != nil || st.NATedAddresses != 2 {
		t.Errorf("Stats = %+v, %v", st, err)
	}
	m, err := s.Manifest()
	if err != nil || m.Seed != 42 {
		t.Errorf("Manifest = %+v, %v", m, err)
	}
	metrics, err := s.Metrics()
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if v, ok := MetricValue(metrics, "api_checks_total"); !ok || v != 7 {
		t.Errorf("MetricValue(api_checks_total) = %v, %v", v, ok)
	}
	if _, ok := MetricValue(metrics, "api_checks"); ok {
		t.Error("MetricValue matched a name prefix, want exact-name match")
	}
	v, err := s.Verdict("100.64.0.1")
	if err != nil || !v.Reused {
		t.Errorf("Verdict = %+v, %v", v, err)
	}
	vs, err := s.BatchVerdicts([]string{"100.64.0.1", "8.8.8.8"})
	if err != nil || len(vs) != 2 || !vs[0].Reused || vs[1].Reused {
		t.Errorf("BatchVerdicts = %+v, %v", vs, err)
	}
	etag, err := s.ETag("/v1/list")
	if err != nil || etag != `"abc"` {
		t.Errorf("ETag = %q, %v", etag, err)
	}
	nated, err := s.ServedNATed()
	if err != nil || !reflect.DeepEqual(nated, []string{"100.64.0.1", "100.64.0.2"}) {
		t.Errorf("ServedNATed = %v, %v (comment line must be skipped, users column dropped)", nated, err)
	}
	pfx, err := s.ServedPrefixes()
	if err != nil || !reflect.DeepEqual(pfx, []string{"203.0.113.0/24"}) {
		t.Errorf("ServedPrefixes = %v, %v", pfx, err)
	}

	// Non-200s must surface as errors, not silent zero values.
	if _, err := s.ETag("/missing"); err == nil {
		t.Error("ETag on 404 returned no error")
	}
	if err := s.GetJSON("/missing", &struct{}{}); err == nil {
		t.Error("GetJSON on 404 returned no error")
	}
	if _, err := s.ServedNATed(); err != nil {
		// sanity: helper reuse above must not have consumed anything
		t.Errorf("second ServedNATed failed: %v", err)
	}
}

func TestWaitHTTPOK(t *testing.T) {
	var hits int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Not-ready twice, then 200: the poller must ride through non-200s.
		if atomic.AddInt32(&hits, 1) < 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
	}))
	defer ts.Close()
	if err := WaitHTTPOK(ts.URL, 2*time.Second); err != nil {
		t.Fatalf("WaitHTTPOK on an eventually-ready server: %v", err)
	}

	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	down.Close()
	if err := WaitHTTPOK(down.URL, 50*time.Millisecond); err == nil {
		t.Fatal("WaitHTTPOK on a closed server reported ready")
	}
}

func TestStartProcRunsAndCaptures(t *testing.T) {
	p, err := StartProc("echo", "/bin/sh", "-c", "echo listening on http://127.0.0.1:4242; echo oops >&2")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WaitExit(5 * time.Second); err != nil {
		t.Fatalf("WaitExit: %v (stderr: %s)", err, p.Stderr())
	}
	if !p.Exited() {
		t.Error("Exited false after WaitExit")
	}
	url, ok := FindBaseURL(p.Stdout())
	if !ok || url != "http://127.0.0.1:4242" {
		t.Errorf("FindBaseURL over captured stdout = %q, %v", url, ok)
	}
	if !strings.Contains(p.Stderr(), "oops") {
		t.Errorf("stderr not captured: %q", p.Stderr())
	}

	if _, err := StartProc("missing", "/no/such/binary"); err == nil {
		t.Error("StartProc on a missing binary did not error")
	}
}
