package reuseapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/greylist"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/obs"
)

// TestAcceptsGzipQualities pins the RFC 9110 qvalue handling: a zero weight
// in any of its spellings is a refusal, anything else (absent, positive,
// malformed) accepts. The q=0.0 case is the regression: it used to be read
// as acceptance because only the literal "q=0" was recognised as zero.
func TestAcceptsGzipQualities(t *testing.T) {
	cases := []struct {
		header string
		want   bool
	}{
		{"", false},
		{"identity", false},
		{"gzip", true},
		{"gzip, deflate, br", true},
		{"deflate, gzip", true},
		{"*", true},
		{"gzip;q=1", true},
		{"gzip;q=0.5", true},
		{"gzip; q=0.5", true},
		{"gzip;q=0", false},
		{"gzip;q=0.0", false},
		{"gzip;q=0.00", false},
		{"gzip;q=0.000", false},
		{"gzip; q=0.0", false},
		{"gzip;Q=0", false},
		{"*;q=0", false},
		{"gzip;q=0.001", true},
		{"gzip;q=0.010", true},
		{"gzip;q=junk", true}, // malformed weight: default weight 1 applies
		{"identity;q=0, gzip;q=0.0", false},
		{"identity;q=0, gzip;q=0.2", true},
	}
	for _, tc := range cases {
		r := httptest.NewRequest("GET", "/v1/list", nil)
		if tc.header != "" {
			r.Header.Set("Accept-Encoding", tc.header)
		}
		if got := acceptsGzip(r); got != tc.want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

// TestGzipRefusalServesIdentity drives the q=0.0 fix through the handler: a
// client refusing gzip must get the identity body even though a gzip variant
// is precomputed.
func TestGzipRefusalServesIdentity(t *testing.T) {
	srv := NewServer(goldenDataset(3, 800, 40))
	h := handlerFor(t, srv)
	for _, header := range []string{"gzip;q=0.0", "gzip;q=0", "*;q=0"} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", "/v1/list", nil)
		req.Header.Set("Accept-Encoding", header)
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("Accept-Encoding %q: status %d", header, rec.Code)
		}
		if ce := rec.Header().Get("Content-Encoding"); ce != "" {
			t.Errorf("Accept-Encoding %q answered Content-Encoding %q, want identity", header, ce)
		}
		if !strings.HasPrefix(rec.Body.String(), "# NATed reused addresses") {
			t.Errorf("Accept-Encoding %q body is not the plain list", header)
		}
	}
}

// TestVaryOnPrecomputedEndpoints pins Vary: Accept-Encoding on every
// response shape of the content-negotiated endpoints: identity 200, gzip
// 200, and 304 — a shared cache must never serve the gzip variant to a
// client that didn't ask for it, and RFC 9110 requires Vary on 304 too.
func TestVaryOnPrecomputedEndpoints(t *testing.T) {
	srv := NewServer(goldenDataset(3, 800, 40))
	h := handlerFor(t, srv)
	for _, path := range []string{"/v1/list", "/v1/prefixes"} {
		// Identity 200.
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 || rec.Header().Get("Vary") != "Accept-Encoding" {
			t.Errorf("%s identity: status %d Vary %q", path, rec.Code, rec.Header().Get("Vary"))
		}
		etag := rec.Header().Get("ETag")

		// Gzip 200.
		rec = httptest.NewRecorder()
		req := httptest.NewRequest("GET", path, nil)
		req.Header.Set("Accept-Encoding", "gzip")
		h.ServeHTTP(rec, req)
		if rec.Code != 200 || rec.Header().Get("Vary") != "Accept-Encoding" {
			t.Errorf("%s gzip: status %d Vary %q", path, rec.Code, rec.Header().Get("Vary"))
		}

		// 304.
		rec = httptest.NewRecorder()
		req = httptest.NewRequest("GET", path, nil)
		req.Header.Set("If-None-Match", etag)
		h.ServeHTTP(rec, req)
		if rec.Code != 304 || rec.Header().Get("Vary") != "Accept-Encoding" {
			t.Errorf("%s 304: status %d Vary %q", path, rec.Code, rec.Header().Get("Vary"))
		}
	}
}

// TestGreylistEndpoint pins the /v1/greylist answer shapes against the
// in-process greylist.Config.Recommend reference: tempfail with windows and
// expiry for reused addresses, bare block for clean space.
func TestGreylistEndpoint(t *testing.T) {
	d := &Dataset{
		NATUsers:        map[iputil.Addr]int{mustParse(t, "203.0.113.7"): 12},
		DynamicPrefixes: iputil.NewPrefixSet(),
		Generated:       time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC),
	}
	d.DynamicPrefixes.Add(mustParsePrefix(t, "198.51.100.0/24"))
	srv := NewServer(d)
	srv.Greylist = greylist.Config{MinDelay: 2 * time.Minute, RetryWindow: 6 * time.Hour}
	now := time.Date(2026, 2, 2, 12, 0, 0, 0, time.UTC)
	srv.now = func() time.Time { return now }
	h := handlerFor(t, srv)

	get := func(ip string) (int, GreylistAnswer, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/greylist?ip="+ip, nil))
		var ans GreylistAnswer
		if rec.Code == 200 {
			if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
				t.Fatalf("greylist(%s): %v", ip, err)
			}
		}
		return rec.Code, ans, rec.Body.String()
	}

	// NATed address: tempfail with the configured window.
	code, ans, body := get("203.0.113.7")
	if code != 200 || ans.Action != "tempfail" || !ans.Reused || !ans.NATed {
		t.Fatalf("nated greylist = %d %s", code, body)
	}
	if ans.MinDelaySeconds != 120 || ans.RetryWindowSeconds != 6*3600 {
		t.Errorf("nated window = %+v", ans)
	}
	if ans.Expires == nil || !ans.Expires.Equal(now.Add(6*time.Hour)) {
		t.Errorf("nated expires = %v, want %v", ans.Expires, now.Add(6*time.Hour))
	}

	// Dynamic address: also reused, also tempfail.
	if code, ans, body = get("198.51.100.200"); code != 200 || ans.Action != "tempfail" || !ans.Dynamic {
		t.Fatalf("dynamic greylist = %d %s", code, body)
	}

	// Clean address: block, no window, no expiry — and the omitted fields
	// must be absent from the JSON.
	code, ans, body = get("192.0.2.1")
	if code != 200 || ans.Action != "block" || ans.Reused {
		t.Fatalf("clean greylist = %d %s", code, body)
	}
	if strings.Contains(body, "min_delay_seconds") || strings.Contains(body, "expires") {
		t.Errorf("block answer leaks window fields: %s", body)
	}

	// The handler must agree with the in-process reference.
	ref := srv.Greylist.Recommend(true, now)
	if _, ans, _ := get("203.0.113.7"); ans.Action != ref.Action.String() ||
		ans.RetryWindowSeconds != int64(ref.RetryWindow/time.Second) || ans.Expires == nil || !ans.Expires.Equal(ref.Expires) {
		t.Errorf("endpoint diverges from Config.Recommend: %+v vs %+v", ans, ref)
	}

	// Error shapes match /v1/check.
	for _, tc := range []struct {
		target string
		code   int
	}{
		{"/v1/greylist", 400},
		{"/v1/greylist?ip=not-an-ip", 400},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", tc.target, nil))
		if rec.Code != tc.code {
			t.Errorf("%s = %d, want %d", tc.target, rec.Code, tc.code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/greylist?ip=192.0.2.1", nil))
	if rec.Code != 405 {
		t.Errorf("POST /v1/greylist = %d, want 405", rec.Code)
	}
}

func mustParse(t *testing.T, s string) iputil.Addr {
	t.Helper()
	a, err := iputil.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func mustParsePrefix(t *testing.T, s string) iputil.Prefix {
	t.Helper()
	p, err := iputil.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// twoDatasetRegistry builds a registry with distinct datasets "alpha"
// (default) and "beta".
func twoDatasetRegistry(t *testing.T) *Registry {
	t.Helper()
	alpha := NewServer(&Dataset{
		NATUsers:        map[iputil.Addr]int{mustParse(t, "203.0.113.7"): 12},
		DynamicPrefixes: iputil.NewPrefixSet(),
		Generated:       time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC),
	})
	beta := NewServer(&Dataset{
		NATUsers: map[iputil.Addr]int{
			mustParse(t, "198.51.100.9"): 44,
			mustParse(t, "192.0.2.3"):    7,
		},
		DynamicPrefixes: iputil.NewPrefixSet(),
		Generated:       time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC),
	})
	g := NewRegistry()
	if err := g.Register("alpha", alpha); err != nil {
		t.Fatal(err)
	}
	if err := g.Register("beta", beta); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRegistryRouting pins the multi-dataset dispatch: named routes answer
// per dataset, unknown names and endpoints 404 with JSON errors.
func TestRegistryRouting(t *testing.T) {
	g := twoDatasetRegistry(t)
	h := g.Handler()

	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}
	if code, body := get("/v1/alpha/check?ip=203.0.113.7"); code != 200 || !strings.Contains(body, `"reused":true`) {
		t.Errorf("/v1/alpha/check = %d %s", code, body)
	}
	if code, body := get("/v1/beta/check?ip=203.0.113.7"); code != 200 || !strings.Contains(body, `"reused":false`) {
		t.Errorf("/v1/beta/check against alpha's address = %d %s", code, body)
	}
	if code, body := get("/v1/beta/stats"); code != 200 || !strings.Contains(body, `"nated_addresses":2`) {
		t.Errorf("/v1/beta/stats = %d %s", code, body)
	}
	if code, body := get("/v1/beta/greylist?ip=198.51.100.9"); code != 200 || !strings.Contains(body, `"action":"tempfail"`) {
		t.Errorf("/v1/beta/greylist = %d %s", code, body)
	}
	if code, body := get("/v1/gamma/stats"); code != 404 || !strings.Contains(body, "unknown dataset") {
		t.Errorf("/v1/gamma/stats = %d %s", code, body)
	}
	if code, body := get("/v1/alpha/nope"); code != 404 || !strings.Contains(body, "unknown endpoint") {
		t.Errorf("/v1/alpha/nope = %d %s", code, body)
	}
	if code, _ := get("/no-such-path"); code != 404 {
		t.Errorf("/no-such-path = %d", code)
	}
	// Every unmatched /v1/ path answers the JSON Error shape, not the
	// mux's plain-text 404.
	for _, tc := range []struct{ path, detail string }{
		{"/v1/nope", "nope"},
		{"/v1/", ""},
		{"/v1/alpha/", ""},
		{"/v1/alpha/check/extra", "check/extra"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", tc.path, nil))
		var e Error
		if rec.Code != 404 || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s = %d %q, want a JSON 404", tc.path, rec.Code, rec.Header().Get("Content-Type"))
		} else if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil ||
			e.Error != "unknown endpoint" || e.Detail != tc.detail {
			t.Errorf("%s body = %q (%v), want unknown endpoint %q", tc.path, rec.Body.String(), err, tc.detail)
		}
	}
}

// TestRegistryUnprefixedAliasByteIdentity requires the unprefixed /v1/*
// routes to answer byte-for-byte what the default dataset's named routes do
// — the alias IS the default dataset, so clients may use either.
func TestRegistryUnprefixedAliasByteIdentity(t *testing.T) {
	g := NewRegistry()
	if err := g.Register("main", NewServer(goldenDataset(11, 600, 50))); err != nil {
		t.Fatal(err)
	}
	h := g.Handler()

	paths := []string{
		"check?ip=203.0.113.7",
		"list",
		"prefixes",
		"stats",
		"greylist?ip=203.0.113.7",
	}
	for _, path := range paths {
		for _, enc := range []string{"", "gzip"} {
			ureq := httptest.NewRequest("GET", "/v1/"+path, nil)
			nreq := httptest.NewRequest("GET", "/v1/main/"+path, nil)
			if enc != "" {
				ureq.Header.Set("Accept-Encoding", enc)
				nreq.Header.Set("Accept-Encoding", enc)
			}
			urec, nrec := httptest.NewRecorder(), httptest.NewRecorder()
			h.ServeHTTP(urec, ureq)
			h.ServeHTTP(nrec, nreq)
			if urec.Code != nrec.Code || !bytes.Equal(urec.Body.Bytes(), nrec.Body.Bytes()) {
				t.Errorf("%s (enc %q): unprefixed answer diverges from /v1/main/ (%d vs %d)",
					path, enc, urec.Code, nrec.Code)
			}
			if ue, ne := urec.Header().Get("ETag"), nrec.Header().Get("ETag"); ue != ne {
				t.Errorf("%s: ETag %q vs %q", path, ue, ne)
			}
		}
	}
}

// TestRegistryValidation pins Register's name rules and Handler's
// preconditions.
func TestRegistryValidation(t *testing.T) {
	srv := NewServer(&Dataset{Generated: time.Unix(0, 0).UTC()})
	g := NewRegistry()
	for _, name := range []string{"", "check", "greylist", "UPPER", "sp ace", "sl/ash"} {
		if err := g.Register(name, srv); err == nil {
			t.Errorf("Register(%q) accepted, want error", name)
		}
	}
	if err := g.Register("ok-name_1.2", srv); err != nil {
		t.Errorf("Register(ok-name_1.2): %v", err)
	}
	if err := g.Register("ok-name_1.2", srv); err == nil {
		t.Error("duplicate Register accepted")
	}
	if got := g.Names(); len(got) != 1 || got[0] != "ok-name_1.2" {
		t.Errorf("Names = %q", got)
	}

	defer func() {
		if recover() == nil {
			t.Error("empty registry Handler did not panic")
		}
	}()
	NewRegistry().Handler()
}

// TestRegistryPerDatasetMetrics requires request counters to carry the
// dataset label so one /metrics endpoint separates the feeds.
func TestRegistryPerDatasetMetrics(t *testing.T) {
	g := twoDatasetRegistry(t)
	g.Obs = obs.NewRegistry()
	h := g.Handler()

	for _, path := range []string{"/v1/alpha/check?ip=192.0.2.1", "/v1/beta/check?ip=192.0.2.1", "/v1/check?ip=192.0.2.1"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s = %d", path, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	metrics, _ := io.ReadAll(rec.Body)
	// Both named routes and the unprefixed alias land on the same labelled
	// counter: the alias IS the default dataset, so alpha counts 2.
	if !strings.Contains(string(metrics),
		`wall_api_requests_total{dataset="alpha",endpoint="check"} 2`) {
		t.Errorf("alpha counter missing or wrong:\n%s", metrics)
	}
	if !strings.Contains(string(metrics),
		`wall_api_requests_total{dataset="beta",endpoint="check"} 1`) {
		t.Errorf("beta counter missing or wrong:\n%s", metrics)
	}
}
