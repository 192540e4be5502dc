package reuseapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/obs"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	dyn := iputil.NewPrefixSet()
	dyn.Add(iputil.MustParsePrefix("10.9.0.0/24"))
	srv := NewServer(&Dataset{
		NATUsers: map[iputil.Addr]int{
			iputil.MustParseAddr("100.64.0.1"): 3,
			iputil.MustParseAddr("100.64.0.2"): 78,
		},
		DynamicPrefixes: dyn,
		Generated:       time.Date(2020, 5, 11, 0, 0, 0, 0, time.UTC),
	})
	ts := httptest.NewServer(handlerFor(t, srv))
	t.Cleanup(ts.Close)
	return srv, ts
}

// handlerFor serves srv the way every Server is served: as the default
// dataset of a one-entry Registry.
func handlerFor(t testing.TB, srv *Server) http.Handler {
	t.Helper()
	g := NewRegistry()
	if err := g.Register("default", srv); err != nil {
		t.Fatal(err)
	}
	return g.Handler()
}

func getJSON(t *testing.T, url string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestCheckNATed(t *testing.T) {
	_, ts := testServer(t)
	var v Verdict
	resp := getJSON(t, ts.URL+"/v1/check?ip=100.64.0.1", &v)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !v.Reused || !v.NATed || v.Dynamic || v.Users != 3 {
		t.Errorf("verdict = %+v", v)
	}
	if !strings.Contains(v.Advice, "greylist") {
		t.Errorf("advice = %q", v.Advice)
	}
}

func TestCheckDynamic(t *testing.T) {
	_, ts := testServer(t)
	var v Verdict
	getJSON(t, ts.URL+"/v1/check?ip=10.9.0.200", &v)
	if !v.Reused || !v.Dynamic || v.NATed || v.Prefix != "10.9.0.0/24" {
		t.Errorf("verdict = %+v", v)
	}
}

func TestCheckClean(t *testing.T) {
	_, ts := testServer(t)
	var v Verdict
	getJSON(t, ts.URL+"/v1/check?ip=8.8.8.8", &v)
	if v.Reused || v.NATed || v.Dynamic {
		t.Errorf("verdict = %+v", v)
	}
}

func TestCheckErrors(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/check?ip=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad ip status = %d", resp.StatusCode)
	}
	// POST is the batch endpoint now; an empty body is a malformed batch.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/check?ip=8.8.8.8", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST with empty body status = %d, want 400", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/v1/check?ip=8.8.8.8", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT status = %d, want 405", resp.StatusCode)
	}
}

func TestListAndPrefixes(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/list")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if !strings.Contains(text, "100.64.0.1") || !strings.Contains(text, "100.64.0.2") {
		t.Errorf("list = %q", text)
	}
	resp, err = http.Get(ts.URL + "/v1/prefixes")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "10.9.0.0/24") {
		t.Errorf("prefixes = %q", body)
	}
}

func TestStatsAndUpdate(t *testing.T) {
	srv, ts := testServer(t)
	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.NATedAddresses != 2 || st.DynamicPrefixes != 1 || st.MaxUsers != 78 {
		t.Errorf("stats = %+v", st)
	}
	// Swap the dataset; the server must serve the new one.
	srv.Update(&Dataset{Generated: time.Now()})
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.NATedAddresses != 0 || st.MaxUsers != 0 {
		t.Errorf("stats after update = %+v", st)
	}
}

func TestCheckErrorBodies(t *testing.T) {
	_, ts := testServer(t)
	for _, tc := range []struct {
		url       string
		wantError string
		wantDet   string
	}{
		{ts.URL + "/v1/check", "missing ip parameter", ""},
		{ts.URL + "/v1/check?ip=banana", "malformed ip parameter", "banana"},
		{ts.URL + "/v1/check?ip=300.1.1.1", "malformed ip parameter", "300.1.1.1"},
	} {
		resp, err := http.Get(tc.url)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.url, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q", tc.url, ct)
		}
		var e Error
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: body not JSON: %v", tc.url, err)
		}
		resp.Body.Close()
		if e.Error != tc.wantError || e.Detail != tc.wantDet {
			t.Errorf("%s: error = %+v", tc.url, e)
		}
	}
}

func TestStatsEmptyDataset(t *testing.T) {
	srv := NewServer(&Dataset{})
	ts := httptest.NewServer(handlerFor(t, srv))
	defer ts.Close()
	var st Stats
	resp := getJSON(t, ts.URL+"/v1/stats", &st)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 on empty dataset", resp.StatusCode)
	}
	if st.NATedAddresses != 0 || st.DynamicPrefixes != 0 || st.MaxUsers != 0 || !st.Empty {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestObsEndpoints(t *testing.T) {
	srv, _ := testServer(t)
	g := NewRegistry()
	if err := g.Register("default", srv); err != nil {
		t.Fatal(err)
	}
	g.Obs = obs.NewRegistry()
	g.Manifest = func() *obs.Manifest { return obs.NewManifest() }
	g.EnablePprof = true
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	if _, err := http.Get(ts.URL + "/v1/check?ip=8.8.8.8"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `wall_api_requests_total{dataset="default",endpoint="check"} 1`; !strings.Contains(string(body), want) {
		t.Errorf("/metrics missing %q:\n%s", want, body)
	}
	resp, err = http.Get(ts.URL + "/debug/manifest")
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("/debug/manifest not JSON: %v", err)
	}
	resp.Body.Close()
	if m.GoVersion == "" {
		t.Errorf("manifest missing go version: %+v", m)
	}
	resp, err = http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d", resp.StatusCode)
	}
}

func TestSortedNATed(t *testing.T) {
	d := &Dataset{NATUsers: map[iputil.Addr]int{9: 2, 3: 2, 7: 2}}
	got := d.SortedNATed()
	if len(got) != 3 || got[0] != 3 || got[2] != 9 {
		t.Errorf("SortedNATed = %v", got)
	}
}
