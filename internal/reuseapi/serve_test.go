package reuseapi

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/blocklist"
	"github.com/reuseblock/reuseblock/internal/iputil"
)

// goldenDataset builds a deterministic mixed dataset: NATed addresses with
// varied user counts and dynamic prefixes of several lengths, including
// nested ones so longest-prefix match is actually exercised.
func goldenDataset(seed int64, nAddrs, nPrefixes int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{
		NATUsers:        map[iputil.Addr]int{},
		DynamicPrefixes: iputil.NewPrefixSet(),
		Generated:       time.Date(2020, 5, 11, 0, 0, 0, 0, time.UTC),
	}
	for i := 0; i < nAddrs; i++ {
		d.NATUsers[iputil.Addr(rng.Uint32())] = 2 + rng.Intn(500)
	}
	for i := 0; i < nPrefixes; i++ {
		p := iputil.PrefixFrom(iputil.Addr(rng.Uint32()), 8+rng.Intn(25))
		d.DynamicPrefixes.Add(p)
		// Nest a longer prefix inside every fourth one.
		if i%4 == 0 && p.Bits() <= 24 {
			d.DynamicPrefixes.Add(iputil.PrefixFrom(p.Base(), p.Bits()+4))
		}
	}
	return d
}

// sampleAddrs draws lookup targets that hit NAT entries, dynamic prefixes,
// and clean space.
func sampleAddrs(d *Dataset, rng *rand.Rand, n int) []iputil.Addr {
	var out []iputil.Addr
	nated := d.SortedNATed()
	prefixes := d.DynamicPrefixes.Sorted()
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			if len(nated) > 0 {
				out = append(out, nated[rng.Intn(len(nated))])
				continue
			}
			fallthrough
		case 1:
			if len(prefixes) > 0 {
				p := prefixes[rng.Intn(len(prefixes))]
				out = append(out, p.Nth(rng.Intn(p.Size())))
				continue
			}
			fallthrough
		default:
			out = append(out, iputil.Addr(rng.Uint32()))
		}
	}
	return out
}

// TestVerdictEncodingMatchesJSON pins the zero-allocation encoder against
// encoding/json over the reference Dataset.Verdict: the snapshot hot path
// must produce byte-for-byte what the pre-snapshot server produced with
// json.Encoder.
func TestVerdictEncodingMatchesJSON(t *testing.T) {
	d := goldenDataset(42, 400, 60)
	snap := Compile(normalize(d))
	rng := rand.New(rand.NewSource(7))
	for _, addr := range sampleAddrs(d, rng, 3000) {
		ref := d.Verdict(addr)
		want, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		got := snap.appendVerdict(nil, addr)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendVerdict(%v) = %q, want %q", addr, got, want)
		}
		if sv := snap.Verdict(addr); sv != ref {
			t.Fatalf("snapshot verdict %+v != dataset verdict %+v", sv, ref)
		}
	}
}

// TestGoldenEndpointBytes re-renders every endpoint body the way the
// pre-snapshot server did — per request, from the raw dataset — and requires
// the compiled snapshot to serve identical bytes. The published artifact
// must not change under the refactor. The segmented dataset is above both
// layout thresholds (listSegMin addresses, prefixSegMin prefixes), so its
// list and prefix bodies are assembled from per-top-byte gzip members.
func TestGoldenEndpointBytes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		d         *Dataset
		segmented bool
	}{
		{"small", goldenDataset(1, 500, 80), false},
		{"segmented", goldenDataset(2, 20_000, 600), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.d
			srv := NewServer(d)
			snap := srv.Snapshot()
			if segmented := len(snap.list.segs) > 2 && len(snap.prefixesB.segs) > 2; segmented != tc.segmented {
				t.Fatalf("list/prefix bodies have %d/%d segments, want segmented=%v",
					len(snap.list.segs), len(snap.prefixesB.segs), tc.segmented)
			}
			ts := httptest.NewServer(handlerFor(t, srv))
			defer ts.Close()

			// Reference /v1/list: re-sort into a Set, WritePlain with the header.
			var wantList bytes.Buffer
			addrs := iputil.NewSet()
			for a := range d.NATUsers {
				addrs.Add(a)
			}
			_ = blocklist.WritePlain(&wantList, addrs,
				fmt.Sprintf("NATed reused addresses, generated %s", d.Generated.UTC().Format(time.RFC3339)))

			// Reference /v1/prefixes.
			var wantPrefixes bytes.Buffer
			fmt.Fprintf(&wantPrefixes, "# dynamic prefixes, generated %s\n", d.Generated.UTC().Format(time.RFC3339))
			for _, p := range d.DynamicPrefixes.Sorted() {
				fmt.Fprintln(&wantPrefixes, p)
			}

			// Reference /v1/stats.
			st := Stats{NATedAddresses: len(d.NATUsers), DynamicPrefixes: d.DynamicPrefixes.Len(), Generated: d.Generated}
			for _, u := range d.NATUsers {
				if u > st.MaxUsers {
					st.MaxUsers = u
				}
			}
			var wantStats bytes.Buffer
			_ = json.NewEncoder(&wantStats).Encode(st)

			for _, ep := range []struct {
				path string
				want []byte
			}{
				{"/v1/list", wantList.Bytes()},
				{"/v1/prefixes", wantPrefixes.Bytes()},
				{"/v1/stats", wantStats.Bytes()},
			} {
				resp, err := http.Get(ts.URL + ep.path)
				if err != nil {
					t.Fatal(err)
				}
				got, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if !bytes.Equal(got, ep.want) {
					t.Errorf("%s body diverged from the pre-snapshot rendering\ngot:  %q\nwant: %q",
						ep.path, truncate(got), truncate(ep.want))
				}
			}

			// Reference /v1/check bodies for a spread of addresses.
			rng := rand.New(rand.NewSource(3))
			for _, addr := range sampleAddrs(d, rng, 200) {
				resp, err := http.Get(ts.URL + "/v1/check?ip=" + addr.String())
				if err != nil {
					t.Fatal(err)
				}
				got, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				var wantBuf bytes.Buffer
				_ = json.NewEncoder(&wantBuf).Encode(d.Verdict(addr))
				if !bytes.Equal(got, wantBuf.Bytes()) {
					t.Fatalf("/v1/check?ip=%v = %q, want %q", addr, got, wantBuf.Bytes())
				}
			}
		})
	}
}

func truncate(b []byte) []byte {
	if len(b) > 200 {
		return b[:200]
	}
	return b
}

// TestCheckHotPathZeroAlloc pins the acceptance criterion: the per-request
// work of GET /v1/check — atomic snapshot load, NAT binary search, prefix
// trie walk, JSON append into the pooled buffer — allocates nothing in
// steady state. (The net/http layer's own per-request header/writer
// allocations are outside the dataset hot path and are not in scope here;
// the handler is driven with a reusable discard writer.)
func TestCheckHotPathZeroAlloc(t *testing.T) {
	d := goldenDataset(11, 1000, 100)
	srv := NewServer(d)
	addrs := []iputil.Addr{
		d.SortedNATed()[0],                   // NAT hit
		d.DynamicPrefixes.Sorted()[0].Nth(0), // dynamic hit
		iputil.MustParseAddr("192.0.2.1"),    // likely clean
	}
	var i int
	allocs := testing.AllocsPerRun(2000, func() {
		addr := addrs[i%len(addrs)]
		i++
		snap := srv.Snapshot()
		bufp := verdictBufPool.Get().(*[]byte)
		buf := snap.appendVerdict((*bufp)[:0], addr)
		if len(buf) == 0 {
			t.Fatal("empty verdict")
		}
		*bufp = buf[:0]
		verdictBufPool.Put(bufp)
	})
	if allocs != 0 {
		t.Errorf("check hot path allocates %.1f per run, want 0", allocs)
	}
}

// TestCheckHandlerAllocBound pins the full handler — routing, query parse,
// lookup, encode, header — at zero steady-state allocations with a reusable
// response writer: the Content-Type header is a shared package-level slice,
// not a per-request Header().Set allocation.
func TestCheckHandlerAllocBound(t *testing.T) {
	d := goldenDataset(12, 1000, 100)
	srv := NewServer(d)
	h := handlerFor(t, srv)
	req := httptest.NewRequest(http.MethodGet, "/v1/check?ip=203.0.113.9", nil)
	w := &discardResponseWriter{h: make(http.Header)}
	allocs := testing.AllocsPerRun(2000, func() { h.ServeHTTP(w, req) })
	if allocs != 0 {
		t.Errorf("full check handler allocates %.1f per run, want 0", allocs)
	}
}

type discardResponseWriter struct{ h http.Header }

func (d *discardResponseWriter) Header() http.Header         { return d.h }
func (d *discardResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardResponseWriter) WriteHeader(int)             {}

func TestBatchCheck(t *testing.T) {
	_, ts := testServer(t)
	body := `["100.64.0.1","10.9.0.200","8.8.8.8"]`
	resp, err := http.Post(ts.URL+"/v1/check", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	var verdicts []Verdict
	if err := json.NewDecoder(resp.Body).Decode(&verdicts); err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 3 {
		t.Fatalf("batch returned %d verdicts, want 3", len(verdicts))
	}
	if !verdicts[0].NATed || verdicts[0].Users != 3 {
		t.Errorf("verdicts[0] = %+v", verdicts[0])
	}
	if !verdicts[1].Dynamic || verdicts[1].Prefix != "10.9.0.0/24" {
		t.Errorf("verdicts[1] = %+v", verdicts[1])
	}
	if verdicts[2].Reused {
		t.Errorf("verdicts[2] = %+v", verdicts[2])
	}
}

// TestBatchCheckMatchesSingle requires each batch verdict to be identical to
// the corresponding single-check answer.
func TestBatchCheckMatchesSingle(t *testing.T) {
	d := goldenDataset(5, 200, 30)
	srv := NewServer(d)
	ts := httptest.NewServer(handlerFor(t, srv))
	defer ts.Close()
	rng := rand.New(rand.NewSource(9))
	addrs := sampleAddrs(d, rng, 50)
	ips := make([]string, len(addrs))
	for i, a := range addrs {
		ips[i] = a.String()
	}
	body, _ := json.Marshal(ips)
	resp, err := http.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var verdicts []Verdict
	if err := json.NewDecoder(resp.Body).Decode(&verdicts); err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != len(addrs) {
		t.Fatalf("got %d verdicts, want %d", len(verdicts), len(addrs))
	}
	for i, a := range addrs {
		if want := d.Verdict(a); verdicts[i] != want {
			t.Errorf("batch[%d] = %+v, want %+v", i, verdicts[i], want)
		}
	}
}

func TestBatchCheckErrors(t *testing.T) {
	_, ts := testServer(t)
	for _, tc := range []struct {
		name string
		body string
		code int
	}{
		{"not json", "banana", http.StatusBadRequest},
		{"not an array", `{"ip":"8.8.8.8"}`, http.StatusBadRequest},
		{"malformed ip", `["8.8.8.8","nope"]`, http.StatusBadRequest},
		{"empty array ok", `[]`, http.StatusOK},
	} {
		resp, err := http.Post(ts.URL+"/v1/check", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}

}

// TestBatchCheckLimitBoundary is the off-by-one regression test for the
// MaxBatchIPs guard: a batch of exactly MaxBatchIPs entries must succeed
// with a full verdict array, while one more entry is a protocol violation —
// a 400 whose body is the documented JSON Error shape naming the count.
func TestBatchCheckLimitBoundary(t *testing.T) {
	_, ts := testServer(t)

	exact := make([]string, MaxBatchIPs)
	for i := range exact {
		exact[i] = "8.8.8.8"
	}
	body, _ := json.Marshal(exact)
	resp, err := http.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var verdicts []Verdict
	err = json.NewDecoder(resp.Body).Decode(&verdicts)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("batch of exactly MaxBatchIPs: status = %d, decode err = %v", resp.StatusCode, err)
	}
	if len(verdicts) != MaxBatchIPs {
		t.Fatalf("batch of exactly MaxBatchIPs returned %d verdicts", len(verdicts))
	}

	over := append(exact, "8.8.8.8")
	body, _ = json.Marshal(over)
	resp, err = http.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("batch of MaxBatchIPs+1: status = %d, want 400", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("batch-limit error Content-Type = %q", ct)
	}
	var apiErr Error
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatalf("batch-limit error body is not the Error shape: %v", err)
	}
	if apiErr.Error == "" || !strings.Contains(apiErr.Detail, "10001") || !strings.Contains(apiErr.Detail, "10000") {
		t.Errorf("batch-limit error body = %+v, want the offending and allowed counts in detail", apiErr)
	}
}

func TestListETagAnd304(t *testing.T) {
	_, ts := testServer(t)
	for _, path := range []string{"/v1/list", "/v1/prefixes"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		etag := resp.Header.Get("ETag")
		if etag == "" || !strings.HasPrefix(etag, `"`) {
			t.Fatalf("%s: missing/unquoted ETag %q", path, etag)
		}
		if len(body) == 0 {
			t.Fatalf("%s: empty body", path)
		}

		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		req.Header.Set("If-None-Match", etag)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		notMod, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Errorf("%s: If-None-Match status = %d, want 304", path, resp.StatusCode)
		}
		if len(notMod) != 0 {
			t.Errorf("%s: 304 carried a body (%d bytes)", path, len(notMod))
		}

		// A stale tag must get the full body again.
		req.Header.Set("If-None-Match", `"stale"`)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Equal(again, body) {
			t.Errorf("%s: stale-tag refetch = %d (%d bytes)", path, resp.StatusCode, len(again))
		}
	}
}

func TestListGzipNegotiation(t *testing.T) {
	// A dataset big enough that gzip wins, so the compressed variant exists.
	d := goldenDataset(2, 2000, 100)
	srv := NewServer(d)
	ts := httptest.NewServer(handlerFor(t, srv))
	defer ts.Close()

	plain, err := http.Get(ts.URL + "/v1/list")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(plain.Body)
	plain.Body.Close()

	// Explicit gzip request (DisableCompression stops the transport from
	// transparently decoding, so we see the wire form).
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/list", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", enc)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("gzip round trip diverged: %d vs %d bytes", len(got), len(want))
	}

	// A refusal must get identity bytes.
	req.Header.Set("Accept-Encoding", "gzip;q=0")
	resp2, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if enc := resp2.Header.Get("Content-Encoding"); enc != "" {
		t.Errorf("q=0 still got Content-Encoding %q", enc)
	}
	identity, _ := io.ReadAll(resp2.Body)
	if !bytes.Equal(identity, want) {
		t.Errorf("identity body diverged")
	}
}

// TestNilObsRequests pins the nil-registry contract on the serving path: a
// Registry with no Obs set must answer every endpoint without panicking —
// the handlers are served uncounted.
func TestNilObsRequests(t *testing.T) {
	srv := NewServer(&Dataset{
		NATUsers:  map[iputil.Addr]int{iputil.MustParseAddr("100.64.0.1"): 3},
		Generated: time.Unix(0, 0).UTC(),
	})
	ts := httptest.NewServer(handlerFor(t, srv))
	defer ts.Close()
	for _, path := range []string{"/v1/check?ip=100.64.0.1", "/v1/list", "/v1/prefixes", "/v1/stats"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s with nil Obs: status = %d", path, resp.StatusCode)
		}
	}
	// The batch path too.
	resp, err := http.Post(ts.URL+"/v1/check", "application/json", strings.NewReader(`["100.64.0.1"]`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("batch with nil Obs: status = %d", resp.StatusCode)
	}
}

// TestConcurrentUpdateAndChecks hammers the check and list endpoints while
// snapshots are swapped underneath — the race-detector workload for the
// atomic serving path. Every answer must be internally consistent with one
// of the two datasets; torn reads would mix them.
func TestConcurrentUpdateAndChecks(t *testing.T) {
	dA := &Dataset{
		NATUsers:  map[iputil.Addr]int{iputil.MustParseAddr("100.64.0.1"): 3},
		Generated: time.Date(2020, 5, 11, 0, 0, 0, 0, time.UTC),
	}
	dynB := iputil.NewPrefixSet()
	dynB.Add(iputil.MustParsePrefix("100.64.0.0/24"))
	dB := &Dataset{
		DynamicPrefixes: dynB,
		Generated:       time.Date(2021, 5, 11, 0, 0, 0, 0, time.UTC),
	}
	srv := NewServer(dA)
	handler := handlerFor(t, srv)

	wantA := string(Compile(normalize(dA)).appendVerdict(nil, iputil.MustParseAddr("100.64.0.1")))
	wantB := string(Compile(normalize(dB)).appendVerdict(nil, iputil.MustParseAddr("100.64.0.1")))

	const workers, perWorker = 8, 400
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/check?ip=100.64.0.1", nil))
				if body := rec.Body.String(); body != wantA && body != wantB {
					errs <- body
					return
				}
				rec = httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodGet, "/v1/list", nil)
				handler.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Sprintf("list status %d", rec.Code)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if i%2 == 0 {
				srv.Update(dB)
			} else {
				srv.Update(dA)
			}
		}
	}()
	wg.Wait()
	<-done
	select {
	case bad := <-errs:
		t.Fatalf("torn or foreign verdict: %q\nwantA %q\nwantB %q", bad, wantA, wantB)
	default:
	}
}

// TestUpdateSwapsPrecomputedBodies verifies ETags move with the dataset.
func TestUpdateSwapsPrecomputedBodies(t *testing.T) {
	srv, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/list")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag1 := resp.Header.Get("ETag")

	srv.Update(&Dataset{
		NATUsers:  map[iputil.Addr]int{iputil.MustParseAddr("203.0.113.5"): 9},
		Generated: time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC),
	})
	resp, err = http.Get(ts.URL + "/v1/list")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if etag2 := resp.Header.Get("ETag"); etag2 == etag1 {
		t.Errorf("ETag did not change across Update: %q", etag2)
	}
	if !strings.Contains(string(body), "203.0.113.5") {
		t.Errorf("updated list = %q", body)
	}

	// The old tag must now miss.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/list", nil)
	req.Header.Set("If-None-Match", etag1)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("stale tag after Update: status = %d, want 200", resp.StatusCode)
	}
}
