package reuseapi

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/shed"
)

// generousShed is a controller no idle test request can trip.
func generousShed() *shed.Controller {
	return shed.New(shed.Config{
		CheapConcurrency: 64, HeavyConcurrency: 64, QueueLimit: 64,
	}, nil)
}

type wireResponse struct {
	Status   int
	Body     string
	Headers  map[string]string
	AllNames []string
}

// fire captures the parts of a response the byte-identity contract covers.
func fire(t *testing.T, ts *httptest.Server, method, path string, hdr map[string]string, body string) wireResponse {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := wireResponse{Status: resp.StatusCode, Body: string(b), Headers: map[string]string{}}
	for _, h := range []string{"Content-Type", "ETag", "Content-Encoding", "Retry-After"} {
		out.Headers[h] = resp.Header.Get(h)
	}
	for name := range resp.Header {
		out.AllNames = append(out.AllNames, name)
	}
	return out
}

// TestShedOffByteIdentity pins the off-by-default contract: a server with
// admission control enabled but idle answers every endpoint — success and
// error paths alike — byte-identically to a server without it.
func TestShedOffByteIdentity(t *testing.T) {
	d := goldenDataset(11, 200, 40)
	plain := NewServer(d)
	guarded := NewServer(goldenDataset(11, 200, 40))
	guarded.Shed = generousShed()

	tsPlain := httptest.NewServer(handlerFor(t, plain))
	defer tsPlain.Close()
	tsGuarded := httptest.NewServer(handlerFor(t, guarded))
	defer tsGuarded.Close()

	etag := fire(t, tsPlain, http.MethodGet, "/v1/list", nil, "").Headers["ETag"]
	if etag == "" {
		t.Fatal("no ETag to revalidate against")
	}

	cases := []struct {
		name, method, path, body string
		hdr                      map[string]string
	}{
		{"check-hit", http.MethodGet, "/v1/check?ip=" + d.SortedNATed()[0].String(), "", nil},
		{"check-clean", http.MethodGet, "/v1/check?ip=203.0.113.250", "", nil},
		{"check-missing", http.MethodGet, "/v1/check", "", nil},
		{"check-bad", http.MethodGet, "/v1/check?ip=999.1.1.1", "", nil},
		{"check-method", http.MethodDelete, "/v1/check", "", nil},
		{"batch", http.MethodPost, "/v1/check", `["192.0.2.1","203.0.113.9"]`, nil},
		{"batch-malformed", http.MethodPost, "/v1/check", `{"not":"an array"}`, nil},
		{"batch-bad-ip", http.MethodPost, "/v1/check", `["nope"]`, nil},
		{"list", http.MethodGet, "/v1/list", "", nil},
		{"list-gzip", http.MethodGet, "/v1/list", "", map[string]string{"Accept-Encoding": "gzip"}},
		{"list-304", http.MethodGet, "/v1/list", "", map[string]string{"If-None-Match": etag}},
		{"prefixes", http.MethodGet, "/v1/prefixes", "", nil},
		{"stats", http.MethodGet, "/v1/stats", "", nil},
		{"metrics-absent", http.MethodGet, "/metrics", "", nil},
	}
	for _, tc := range cases {
		got := fire(t, tsGuarded, tc.method, tc.path, tc.hdr, tc.body)
		want := fire(t, tsPlain, tc.method, tc.path, tc.hdr, tc.body)
		if got.Status != want.Status {
			t.Errorf("%s: status %d with shed, %d without", tc.name, got.Status, want.Status)
		}
		if got.Body != want.Body {
			t.Errorf("%s: body diverged with shed:\n got: %q\nwant: %q", tc.name, got.Body, want.Body)
		}
		for h, wv := range want.Headers {
			if got.Headers[h] != wv {
				t.Errorf("%s: header %s = %q with shed, %q without", tc.name, h, got.Headers[h], wv)
			}
		}
		if got.Headers["Retry-After"] != "" {
			t.Errorf("%s: idle guarded server set Retry-After %q", tc.name, got.Headers["Retry-After"])
		}
	}
}

func TestProbesMountedOnlyWithShed(t *testing.T) {
	plain := NewServer(goldenDataset(3, 10, 5))
	tsPlain := httptest.NewServer(handlerFor(t, plain))
	defer tsPlain.Close()
	for _, path := range []string{"/healthz", "/readyz"} {
		if got := fire(t, tsPlain, http.MethodGet, path, nil, ""); got.Status != http.StatusNotFound {
			t.Errorf("%s on unguarded server = %d, want 404", path, got.Status)
		}
	}

	guarded := NewServer(goldenDataset(3, 10, 5))
	guarded.Shed = generousShed()
	tsGuarded := httptest.NewServer(handlerFor(t, guarded))
	defer tsGuarded.Close()
	hz := fire(t, tsGuarded, http.MethodGet, "/healthz", nil, "")
	if hz.Status != http.StatusOK || hz.Body != "{\"status\":\"ok\"}\n" {
		t.Errorf("/healthz = %d %q", hz.Status, hz.Body)
	}
	rz := fire(t, tsGuarded, http.MethodGet, "/readyz", nil, "")
	if rz.Status != http.StatusOK || rz.Body != "{\"ready\":true,\"mode\":\"normal\"}\n" {
		t.Errorf("/readyz = %d %q", rz.Status, rz.Body)
	}
}

// requireShedShape asserts a rejection is the documented wire contract:
// JSON Error body plus a positive integer Retry-After.
func requireShedShape(t *testing.T, res wireResponse, wantStatus int, wantError string) {
	t.Helper()
	if res.Status != wantStatus {
		t.Fatalf("status = %d, want %d (body %q)", res.Status, wantStatus, res.Body)
	}
	if res.Headers["Retry-After"] == "" {
		t.Fatalf("rejection carries no Retry-After")
	}
	var e Error
	if err := json.Unmarshal([]byte(res.Body), &e); err != nil {
		t.Fatalf("rejection body is not the Error shape: %v (%q)", err, res.Body)
	}
	if e.Error != wantError {
		t.Fatalf("error = %q, want %q (detail %q)", e.Error, wantError, e.Detail)
	}
}

func TestRateLimitedResponseShape(t *testing.T) {
	srv := NewServer(goldenDataset(5, 20, 5))
	srv.Shed = shed.New(shed.Config{RatePerClient: 0.001, Burst: 1}, nil)
	ts := httptest.NewServer(handlerFor(t, srv))
	defer ts.Close()

	if got := fire(t, ts, http.MethodGet, "/v1/check?ip=192.0.2.1", nil, ""); got.Status != http.StatusOK {
		t.Fatalf("first request from a fresh client = %d, want 200", got.Status)
	}
	requireShedShape(t, fire(t, ts, http.MethodGet, "/v1/check?ip=192.0.2.1", nil, ""),
		http.StatusTooManyRequests, "rate limit exceeded")
	// Probes must stay reachable for a rate-limited client.
	if got := fire(t, ts, http.MethodGet, "/readyz", nil, ""); got.Status != http.StatusOK {
		t.Errorf("/readyz rate limited to %d; probes must bypass admission", got.Status)
	}
}

func TestSaturatedGateShedsWithDocumentedShape(t *testing.T) {
	srv := NewServer(goldenDataset(6, 20, 5))
	srv.Shed = shed.New(shed.Config{
		CheapConcurrency: 64, HeavyConcurrency: 1, QueueLimit: 1,
		MaxWait: 5 * time.Millisecond,
	}, nil)
	ts := httptest.NewServer(handlerFor(t, srv))
	defer ts.Close()

	// Hold the heavy gate's only slot so a heavy request must queue and
	// time out.
	release, outcome := srv.Shed.Acquire(context.Background(), shed.ClassHeavy)
	if outcome != shed.Admitted {
		t.Fatalf("setup acquire: %v", outcome)
	}
	defer release()

	requireShedShape(t, fire(t, ts, http.MethodGet, "/v1/list", nil, ""),
		http.StatusTooManyRequests, "overloaded: request shed")
	// The cheap class is isolated: single checks keep flowing.
	if got := fire(t, ts, http.MethodGet, "/v1/check?ip=192.0.2.1", nil, ""); got.Status != http.StatusOK {
		t.Errorf("cheap check = %d while heavy gate saturated, want 200", got.Status)
	}
}

func TestDegradedListServing(t *testing.T) {
	srv := NewServer(goldenDataset(7, 300, 40))
	srv.Shed = generousShed()
	ts := httptest.NewServer(handlerFor(t, srv))
	defer ts.Close()

	normalGz := fire(t, ts, http.MethodGet, "/v1/list", map[string]string{"Accept-Encoding": "gzip"}, "")
	etag := normalGz.Headers["ETag"]
	if srv.Snapshot().list.gz == nil {
		t.Fatal("golden dataset list did not precompute a gzip body; test needs a larger dataset")
	}

	srv.Shed.SetReloadFailed(true)
	if !srv.Shed.Degraded() {
		t.Fatal("failed reload did not degrade the controller")
	}

	// gzip-accepting clients get the precomputed compressed body, same ETag.
	deg := fire(t, ts, http.MethodGet, "/v1/list", map[string]string{"Accept-Encoding": "gzip"}, "")
	if deg.Status != http.StatusOK || deg.Headers["Content-Encoding"] != "gzip" {
		t.Fatalf("degraded gzip list = %d enc %q", deg.Status, deg.Headers["Content-Encoding"])
	}
	if deg.Headers["ETag"] != etag {
		t.Errorf("degraded list changed the ETag %q -> %q", etag, deg.Headers["ETag"])
	}
	zr, err := gzip.NewReader(strings.NewReader(deg.Body))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, srv.Snapshot().list.body) {
		t.Error("degraded gzip body does not decompress to the served list")
	}

	// Revalidation still answers 304 — cheaper than any body.
	if got := fire(t, ts, http.MethodGet, "/v1/list", map[string]string{
		"If-None-Match": etag, "Accept-Encoding": "gzip"}, ""); got.Status != http.StatusNotModified {
		t.Errorf("degraded revalidation = %d, want 304", got.Status)
	}

	// Identity-only clients are turned away with the documented shape. (The
	// header must be explicit: Go's transport otherwise advertises gzip and
	// decompresses transparently.)
	requireShedShape(t, fire(t, ts, http.MethodGet, "/v1/list",
		map[string]string{"Accept-Encoding": "identity"}, ""),
		http.StatusServiceUnavailable, "degraded mode: precomputed gzip only")

	// Recovery restores identity serving (RecoverAfter is defaulted to 2s,
	// so drive it with a clock-free assertion: clearing the failure flips
	// the mode machine into its calm window; we only check the flag here).
	srv.Shed.SetReloadFailed(false)
	if st := srv.Shed.Status(); st.ReloadFailed {
		t.Error("cleared reload failure still reported in status")
	}
}

func TestDegradedListTinyBodyFallsBackToIdentity(t *testing.T) {
	srv := NewServer(&Dataset{}) // header-only list: gzip saves nothing
	srv.Shed = generousShed()
	if srv.Snapshot().list.gz != nil {
		t.Skip("tiny list unexpectedly has a gzip body")
	}
	ts := httptest.NewServer(handlerFor(t, srv))
	defer ts.Close()
	srv.Shed.SetReloadFailed(true)
	got := fire(t, ts, http.MethodGet, "/v1/list", nil, "")
	if got.Status != http.StatusOK || got.Body != string(srv.Snapshot().list.body) {
		t.Fatalf("degraded tiny list = %d %q, want identity body", got.Status, got.Body)
	}
}

func TestDegradedBatchClamp(t *testing.T) {
	srv := NewServer(goldenDataset(8, 50, 10))
	srv.Shed = shed.New(shed.Config{
		CheapConcurrency: 64, HeavyConcurrency: 64, QueueLimit: 64,
		DegradedMaxBatchIPs: 4,
	}, nil)
	ts := httptest.NewServer(handlerFor(t, srv))
	defer ts.Close()

	batch := func(n int) string {
		ips := make([]string, n)
		for i := range ips {
			ips[i] = fmt.Sprintf("192.0.2.%d", i%250+1)
		}
		b, _ := json.Marshal(ips)
		return string(b)
	}

	srv.Shed.SetReloadFailed(true)
	// Within the clamp: serves normally.
	if got := fire(t, ts, http.MethodPost, "/v1/check", nil, batch(4)); got.Status != http.StatusOK {
		t.Fatalf("degraded batch of 4 = %d, want 200", got.Status)
	}
	// Past the clamp but normally valid: retryable 429, not a 400.
	requireShedShape(t, fire(t, ts, http.MethodPost, "/v1/check", nil, batch(5)),
		http.StatusTooManyRequests, "batch clamped in degraded mode")
	// Past the protocol limit: still the 400 contract, clamp or not.
	if got := fire(t, ts, http.MethodPost, "/v1/check", nil, batch(MaxBatchIPs+1)); got.Status != http.StatusBadRequest {
		t.Fatalf("oversized batch while degraded = %d, want 400", got.Status)
	}
}

func TestReadyzFlipsAndRecovers(t *testing.T) {
	srv := NewServer(goldenDataset(9, 20, 5))
	srv.Shed = shed.New(shed.Config{
		CheapConcurrency: 64, HeavyConcurrency: 64, QueueLimit: 64,
		RecoverAfter: 10 * time.Millisecond,
	}, nil)
	ts := httptest.NewServer(handlerFor(t, srv))
	defer ts.Close()

	srv.Shed.SetReloadFailed(true)
	rz := fire(t, ts, http.MethodGet, "/readyz", nil, "")
	requireReadyz(t, rz, http.StatusServiceUnavailable,
		"{\"ready\":false,\"mode\":\"degraded\",\"degraded_datasets\":[\"default\"]}\n")
	if rz.Headers["Retry-After"] == "" {
		t.Error("degraded /readyz carries no Retry-After")
	}
	// /healthz stays 200: degraded is an overload posture, not a death.
	if got := fire(t, ts, http.MethodGet, "/healthz", nil, ""); got.Status != http.StatusOK {
		t.Errorf("/healthz while degraded = %d, want 200", got.Status)
	}

	// Heal and poll readiness only — probing must be enough to recover.
	srv.Shed.SetReloadFailed(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		rz = fire(t, ts, http.MethodGet, "/readyz", nil, "")
		if rz.Status == http.StatusOK || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	requireReadyz(t, rz, http.StatusOK, "{\"ready\":true,\"mode\":\"normal\"}\n")
}

func requireReadyz(t *testing.T, rz wireResponse, status int, body string) {
	t.Helper()
	if rz.Status != status || rz.Body != body {
		t.Fatalf("/readyz = %d %q, want %d %q", rz.Status, rz.Body, status, body)
	}
	if rz.Headers["Content-Type"] != "application/json" {
		t.Fatalf("/readyz Content-Type = %q", rz.Headers["Content-Type"])
	}
}
