package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/e2e"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/obs"
	"github.com/reuseblock/reuseblock/internal/reuseapi"
)

func TestRunHelp(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Fatalf("-h exited %d, want 0\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "Usage of blserve") {
		t.Fatalf("-h did not print usage:\n%s", errb.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
}

func TestRunNoSource(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 1 {
		t.Fatalf("no data source exited %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "provide -nated/-dynamic files or -generate") {
		t.Fatalf("error not reported:\n%s", errb.String())
	}
}

// serveHandler serves srv as blserve does: the default dataset of a
// one-entry registry.
func serveHandler(t *testing.T, srv *reuseapi.Server) http.Handler {
	t.Helper()
	registry := reuseapi.NewRegistry()
	if err := registry.Register(defaultDataset, srv); err != nil {
		t.Fatal(err)
	}
	return registry.Handler()
}

// TestLoadDatasetFromFiles covers the load path run blocks on ListenAndServe
// for: the dataset must contain exactly the listed addresses and prefixes,
// and the assembled handler must answer /v1/check.
func TestLoadDatasetFromFiles(t *testing.T) {
	dir := t.TempDir()
	nated := filepath.Join(dir, "nated.txt")
	if err := os.WriteFile(nated, []byte("203.0.113.7\t12\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dyn := filepath.Join(dir, "dynamic.txt")
	if err := os.WriteFile(dyn, []byte("198.51.100.0/24\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	data, stamps, err := loadDataset(nated, dyn)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.NATUsers) != 1 || data.DynamicPrefixes.Len() != 1 {
		t.Fatalf("dataset = %d NATed, %d prefixes; want 1, 1",
			len(data.NATUsers), data.DynamicPrefixes.Len())
	}
	if len(stamps) != 2 {
		t.Fatalf("stamps = %d files, want 2", len(stamps))
	}

	rec := httptest.NewRecorder()
	serveHandler(t, reuseapi.NewServer(data)).ServeHTTP(rec, httptest.NewRequest("GET", "/v1/check?ip=203.0.113.7", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "203.0.113.7") {
		t.Fatalf("/v1/check = %d %q", rec.Code, rec.Body.String())
	}
}

func TestLoadDatasetMissingFile(t *testing.T) {
	if _, _, err := loadDataset(filepath.Join(t.TempDir(), "nope.txt"), ""); err == nil {
		t.Fatal("missing file must error")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-nated", filepath.Join(t.TempDir(), "nope.txt")}, &out, &errb); code != 1 {
		t.Fatalf("missing -nated file exited %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "dataset default:") {
		t.Fatalf("error does not name the dataset:\n%s", errb.String())
	}
}

func TestWatchNeedsFiles(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-watch", "-generate"}, &out, &errb); code != 1 {
		t.Fatalf("-watch -generate exited %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "-watch needs -nated/-dynamic") {
		t.Fatalf("error not reported:\n%s", errb.String())
	}
	errb.Reset()
	if code := run([]string{"-watch"}, &out, &errb); code != 1 {
		t.Fatalf("bare -watch exited %d, want 1", code)
	}
}

// TestSlowHeaderConnectionClosed is the regression test for the bare
// ListenAndServe bug: a client that opens a connection and never finishes
// its request header used to hold the connection forever; the hardened
// server must close it once the read timeout elapses.
func TestSlowHeaderConnectionClosed(t *testing.T) {
	srv := reuseapi.NewServer(&reuseapi.Dataset{Generated: time.Unix(0, 0).UTC()})
	httpSrv := newHTTPServer(serveHandler(t, srv), serveOptions{
		readTimeout:  200 * time.Millisecond,
		writeTimeout: 200 * time.Millisecond,
		idleTimeout:  200 * time.Millisecond,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send a partial request line and then stall. The server must hang up
	// on its own; without timeouts this read would block until the test
	// deadline.
	if _, err := conn.Write([]byte("GET /v1/stats HT")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	for {
		_, err := conn.Read(buf)
		if err != nil {
			if err == io.EOF {
				return // server closed the slow connection — the fix
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("server kept the slow-header connection open past the read timeout")
			}
			return // RST is also a close
		}
	}
}

// TestIdleConnectionClosed pins the keep-alive idle timeout: a completed
// request whose connection then goes quiet must be dropped by the server.
func TestIdleConnectionClosed(t *testing.T) {
	srv := reuseapi.NewServer(&reuseapi.Dataset{Generated: time.Unix(0, 0).UTC()})
	httpSrv := newHTTPServer(serveHandler(t, srv), serveOptions{
		readTimeout:  time.Second,
		writeTimeout: time.Second,
		idleTimeout:  150 * time.Millisecond,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /v1/stats HTTP/1.1\r\nHost: x\r\n\r\n")
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// Drain the response, then wait for the idle close.
	buf := make([]byte, 4096)
	sawEOF := false
	for !sawEOF {
		_, err := conn.Read(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("idle keep-alive connection survived past the idle timeout")
			}
			sawEOF = true
		}
	}
}

// syncBuffer lets the test read the server's stdout while runCtx writes it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startServe runs runCtx in the background on an ephemeral port and waits —
// via the e2e harness's readiness poll, not a fixed sleep — for the listen
// address to appear on stdout and the API to answer.
func startServe(t *testing.T, args []string) (base string, cancel context.CancelFunc, done <-chan int, out *syncBuffer) {
	t.Helper()
	ctx, cancelFn := context.WithCancel(context.Background())
	outBuf, errBuf := &syncBuffer{}, &syncBuffer{}
	doneCh := make(chan int, 1)
	go func() {
		doneCh <- runCtx(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), outBuf, errBuf)
	}()
	err := e2e.WaitFor(10*time.Second, 10*time.Millisecond, func() (bool, error) {
		select {
		case code := <-doneCh:
			return false, fmt.Errorf("server exited early with %d", code)
		default:
		}
		var ok bool
		base, ok = e2e.FindBaseURL(outBuf.String())
		return ok, nil
	})
	if err != nil {
		t.Fatalf("%v\nstdout: %s\nstderr: %s", err, outBuf.String(), errBuf.String())
	}
	if err := e2e.WaitHTTPOK(base+"/v1/stats", 10*time.Second); err != nil {
		t.Fatalf("server never became ready: %v\nstderr: %s", err, errBuf.String())
	}
	return base, cancelFn, doneCh, outBuf
}

func getStats(t *testing.T, base string) reuseapi.Stats {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st reuseapi.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServeWatchReloadSmoke is the end-to-end hot-reload test: start the
// server with -watch, rewrite the NATed list on disk, and require the served
// dataset, the reload counter, and the manifest status to move — then shut
// down gracefully via the context (the in-process form of SIGINT).
func TestServeWatchReloadSmoke(t *testing.T) {
	dir := t.TempDir()
	nated := filepath.Join(dir, "nated.txt")
	if err := os.WriteFile(nated, []byte("203.0.113.7\t12\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base, cancel, done, _ := startServe(t, []string{
		"-nated", nated, "-watch", "-watch-interval", "30ms", "-shutdown-grace", "2s",
	})
	defer cancel()

	if st := getStats(t, base); st.NATedAddresses != 1 {
		t.Fatalf("startup stats = %+v", st)
	}

	// Rewrite the list (different size, so the stamp changes even on a
	// coarse-mtime filesystem) and wait for the watcher to swap it in.
	if err := os.WriteFile(nated, []byte("203.0.113.7\t12\n198.51.100.9\t44\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := e2e.WaitFor(10*time.Second, 20*time.Millisecond, func() (bool, error) {
		return getStats(t, base).NATedAddresses == 2, nil
	}); err != nil {
		t.Fatalf("dataset never hot-reloaded: %v", err)
	}

	// The manifest must carry the reload status.
	resp, err := http.Get(base + "/debug/manifest")
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Serving == nil || !m.Serving.Watching || len(m.Serving.Datasets) == 0 || m.Serving.Datasets[0].Reloads < 1 {
		t.Fatalf("manifest serving status = %+v", m.Serving)
	}

	// The wall counter must have moved too.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "wall_dataset_reloads_total") {
		t.Errorf("/metrics missing wall_dataset_reloads_total:\n%s", metrics)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("graceful shutdown exited %d, want 0", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down within the grace window")
	}
}

// TestServeSingleFileIsDefaultDataset pins -nated/-dynamic as shorthand for
// -dataset default=NATED,DYN: the unprefixed routes and /v1/default/ answer
// the same bytes, the metrics carry dataset="default", and the manifest has
// exactly one dataset block, marked default.
func TestServeSingleFileIsDefaultDataset(t *testing.T) {
	dir := t.TempDir()
	nated := filepath.Join(dir, "nated.txt")
	if err := os.WriteFile(nated, []byte("203.0.113.7\t12\n198.51.100.9\t44\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dyn := filepath.Join(dir, "dynamic.txt")
	if err := os.WriteFile(dyn, []byte("100.64.0.0/10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base, cancel, _, _ := startServe(t, []string{"-nated", nated, "-dynamic", dyn})
	defer cancel()

	for _, path := range []string{"check?ip=203.0.113.7", "check?ip=100.64.1.1", "list", "stats"} {
		ucode, unprefixed := getJSONStatus(t, base, "/v1/"+path)
		ncode, named := getJSONStatus(t, base, "/v1/default/"+path)
		if ucode != 200 || ncode != 200 || unprefixed != named {
			t.Errorf("/v1/%s = %d %q, /v1/default/%s = %d %q", path, ucode, unprefixed, path, ncode, named)
		}
	}

	_, metrics := getJSONStatus(t, base, "/metrics")
	for _, want := range []string{
		`wall_api_requests_total{dataset="default",endpoint="check"} 4`,
		`wall_dataset_reloads_total{dataset="default"} 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	_, body := getJSONStatus(t, base, "/debug/manifest")
	var m obs.Manifest
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatal(err)
	}
	if m.Serving == nil || len(m.Serving.Datasets) != 1 {
		t.Fatalf("manifest datasets = %+v, want exactly one", m.Serving)
	}
	if d := m.Serving.Datasets[0]; d.Name != "default" || !d.Default || d.NATedAddresses != 2 || d.DynamicPrefixes != 1 {
		t.Errorf("dataset block = %+v", d)
	}
}

// getJSONStatus fetches path and returns the HTTP status plus raw body.
func getJSONStatus(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// getManifest fetches and decodes /debug/manifest.
func getManifest(t *testing.T, base string) obs.Manifest {
	t.Helper()
	code, body := getJSONStatus(t, base, "/debug/manifest")
	if code != 200 {
		t.Fatalf("/debug/manifest = %d", code)
	}
	var m obs.Manifest
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatal(err)
	}
	if m.Serving == nil || len(m.Serving.Datasets) != 1 {
		t.Fatalf("manifest serving status = %+v, want one dataset", m.Serving)
	}
	return m
}

// TestServeShedOffHidesProbes pins that the server mounts no health probe
// endpoints: /healthz and /readyz answer 404, with or without -watch.
func TestServeShedOffHidesProbes(t *testing.T) {
	dir := t.TempDir()
	nated := filepath.Join(dir, "nated.txt")
	if err := os.WriteFile(nated, []byte("203.0.113.7\t12\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-nated", nated},
		{"-nated", nated, "-watch", "-watch-interval", "30ms"},
	} {
		base, cancel, _, _ := startServe(t, args)
		for _, path := range []string{"/healthz", "/readyz"} {
			if code, _ := getJSONStatus(t, base, path); code != 404 {
				t.Errorf("%v: %s = %d, want 404", args, path, code)
			}
		}
		cancel()
	}
}

// TestServeWatchBadReloadKeepsServing drives a failed reload over a real
// -watch server: a corrupted input keeps the old data answering /v1/stats
// while /debug/manifest reports last_reload_error for the dataset, and
// healing the file serves the new data and clears the error.
func TestServeWatchBadReloadKeepsServing(t *testing.T) {
	dir := t.TempDir()
	nated := filepath.Join(dir, "nated.txt")
	if err := os.WriteFile(nated, []byte("203.0.113.7\t12\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base, cancel, _, _ := startServe(t, []string{"-nated", nated, "-watch", "-watch-interval", "30ms"})
	defer cancel()

	// Rewrites go through a rename so the watcher never reads a truncated
	// file, which would parse as an empty list.
	if err := writeFileAtomic(nated, "not-an-ip at all\n"); err != nil {
		t.Fatal(err)
	}
	if err := e2e.WaitFor(10*time.Second, 20*time.Millisecond, func() (bool, error) {
		return getManifest(t, base).Serving.Datasets[0].LastError != "", nil
	}); err != nil {
		t.Fatalf("manifest never reported the failed reload: %v", err)
	}
	if st := getStats(t, base); st.NATedAddresses != 1 {
		t.Errorf("stats after the failed reload = %+v, want the old dataset", st)
	}
	m := getManifest(t, base)
	if d := m.Serving.Datasets[0]; d.Reloads != 0 || !strings.Contains(d.LastError, "not-an-ip") {
		t.Errorf("dataset block after the failed reload = %+v", d)
	}

	if err := writeFileAtomic(nated, "203.0.113.7\t12\n198.51.100.9\t44\n"); err != nil {
		t.Fatal(err)
	}
	if err := e2e.WaitFor(10*time.Second, 20*time.Millisecond, func() (bool, error) {
		return getManifest(t, base).Serving.Datasets[0].LastError == "", nil
	}); err != nil {
		t.Fatalf("healing never cleared the reload error: %v", err)
	}
	if st := getStats(t, base); st.NATedAddresses != 2 {
		t.Errorf("stats after healing = %+v, want the new dataset", st)
	}
	m = getManifest(t, base)
	if d := m.Serving.Datasets[0]; d.Reloads != 1 || d.LastError != "" {
		t.Errorf("manifest after healing = %+v, dataset %+v", m.Serving, d)
	}
}

// writeFileAtomic replaces path with content in one rename.
func writeFileAtomic(path, content string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(content), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// TestReloaderKeepsServingOnBadFile pins the failure path: a reload attempt
// against a now-malformed file must keep the old dataset serving and record
// the error.
func TestReloaderKeepsServingOnBadFile(t *testing.T) {
	dir := t.TempDir()
	nated := filepath.Join(dir, "nated.txt")
	if err := os.WriteFile(nated, []byte("203.0.113.7\t12\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, stamps, err := loadDataset(nated, "")
	if err != nil {
		t.Fatal(err)
	}
	srv := reuseapi.NewServer(data)
	reg := obs.NewRegistry()
	rel := newReloader(datasetSpec{name: defaultDataset, natedF: nated}, true, time.Second, srv, reg, data, stamps)

	if err := os.WriteFile(nated, []byte("not-an-ip is here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rel.checkOnce()
	st := rel.status()
	if st.LastError == "" {
		t.Fatal("bad file did not record an error")
	}
	if st.Reloads != 0 {
		t.Errorf("failed reload counted: %+v", st)
	}
	if srv.Snapshot().NATedAddresses() != 1 {
		t.Error("old dataset was replaced by a failed reload")
	}

	// Fixing the file recovers on the next tick and clears the error.
	if err := os.WriteFile(nated, []byte("203.0.113.7\t12\n198.51.100.9\t44\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rel.checkOnce()
	st = rel.status()
	if st.Reloads != 1 || st.LastError != "" {
		t.Errorf("recovery status = %+v", st)
	}
	if srv.Snapshot().NATedAddresses() != 2 {
		t.Error("recovered dataset not serving")
	}
}

func TestParseDatasetSpec(t *testing.T) {
	cases := []struct {
		in      string
		want    datasetSpec
		wantErr bool
	}{
		{in: "pools=nated.txt,dyn.txt", want: datasetSpec{name: "pools", natedF: "nated.txt", dynF: "dyn.txt"}},
		{in: "pools=nated.txt,", want: datasetSpec{name: "pools", natedF: "nated.txt"}},
		{in: "pools=,dyn.txt", want: datasetSpec{name: "pools", dynF: "dyn.txt"}},
		{in: "pools=nated.txt", want: datasetSpec{name: "pools", natedF: "nated.txt"}},
		{in: "no-equals-sign", wantErr: true},
		{in: "pools=,", wantErr: true},
		{in: "pools=", wantErr: true},
	}
	for _, tc := range cases {
		got, err := parseDatasetSpec(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("parseDatasetSpec(%q) = %+v, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseDatasetSpec(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("parseDatasetSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestDatasetFlagExclusive(t *testing.T) {
	dir := t.TempDir()
	nated := filepath.Join(dir, "nated.txt")
	if err := os.WriteFile(nated, []byte("203.0.113.7\t12\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-dataset", "a=" + nated, "-generate"},
		{"-dataset", "a=" + nated, "-nated", nated},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 1 {
			t.Errorf("%v exited %d, want 1", args, code)
		}
		if !strings.Contains(errb.String(), "-dataset cannot be combined") {
			t.Errorf("%v error not reported:\n%s", args, errb.String())
		}
	}
}

// TestServeMultiDataset boots a two-dataset server and pins the routing
// contract: named routes answer per dataset, the unprefixed routes alias the
// first -dataset, /v1/greylist is mounted everywhere, and the manifest
// carries one lifecycle block per dataset.
func TestServeMultiDataset(t *testing.T) {
	dir := t.TempDir()
	natedA := filepath.Join(dir, "a.txt")
	if err := os.WriteFile(natedA, []byte("203.0.113.7\t12\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	natedB := filepath.Join(dir, "b.txt")
	if err := os.WriteFile(natedB, []byte("198.51.100.9\t44\n192.0.2.3\t7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dynB := filepath.Join(dir, "b-dyn.txt")
	if err := os.WriteFile(dynB, []byte("100.64.0.0/10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base, cancel, _, out := startServe(t, []string{
		"-dataset", "pools=" + natedA + ",",
		"-dataset", "dial=" + natedB + "," + dynB,
	})
	defer cancel()

	if !strings.Contains(out.String(), "dataset pools:") || !strings.Contains(out.String(), "(default)") {
		t.Errorf("startup banner missing dataset lines:\n%s", out.String())
	}

	// Named routes hit their own snapshots.
	if code, body := getJSONStatus(t, base, "/v1/pools/stats"); code != 200 || !strings.Contains(body, `"nated_addresses":1`) {
		t.Errorf("/v1/pools/stats = %d %s", code, body)
	}
	if code, body := getJSONStatus(t, base, "/v1/dial/stats"); code != 200 || !strings.Contains(body, `"nated_addresses":2`) {
		t.Errorf("/v1/dial/stats = %d %s", code, body)
	}
	// The unprefixed route aliases the first -dataset, byte-identically.
	_, named := getJSONStatus(t, base, "/v1/pools/stats")
	_, unprefixed := getJSONStatus(t, base, "/v1/stats")
	if named != unprefixed {
		t.Errorf("unprefixed /v1/stats diverges from default dataset:\n%s\nvs\n%s", unprefixed, named)
	}
	// Per-dataset verdicts: the address in dataset dial is unknown to pools.
	if code, body := getJSONStatus(t, base, "/v1/dial/check?ip=198.51.100.9"); code != 200 || !strings.Contains(body, `"reused":true`) {
		t.Errorf("/v1/dial/check = %d %s", code, body)
	}
	if code, body := getJSONStatus(t, base, "/v1/pools/check?ip=198.51.100.9"); code != 200 || !strings.Contains(body, `"reused":false`) {
		t.Errorf("/v1/pools/check = %d %s", code, body)
	}
	// Greylist is mounted per dataset too.
	if code, body := getJSONStatus(t, base, "/v1/dial/greylist?ip=198.51.100.9"); code != 200 || !strings.Contains(body, `"action":"tempfail"`) {
		t.Errorf("/v1/dial/greylist = %d %s", code, body)
	}
	// Unknown datasets and endpoints 404 with a JSON error.
	if code, body := getJSONStatus(t, base, "/v1/nope/stats"); code != 404 || !strings.Contains(body, "unknown dataset") {
		t.Errorf("/v1/nope/stats = %d %s", code, body)
	}
	if code, body := getJSONStatus(t, base, "/v1/dial/nope"); code != 404 || !strings.Contains(body, "unknown endpoint") {
		t.Errorf("/v1/dial/nope = %d %s", code, body)
	}

	// The manifest carries one block per dataset, default first.
	code, body := getJSONStatus(t, base, "/debug/manifest")
	if code != 200 {
		t.Fatalf("/debug/manifest = %d", code)
	}
	var m obs.Manifest
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatal(err)
	}
	if m.Serving == nil || len(m.Serving.Datasets) != 2 {
		t.Fatalf("manifest datasets = %+v", m.Serving)
	}
	ds := m.Serving.Datasets
	if ds[0].Name != "pools" || !ds[0].Default || ds[0].NATedAddresses != 1 {
		t.Errorf("default dataset block = %+v", ds[0])
	}
	if ds[1].Name != "dial" || ds[1].Default || ds[1].NATedAddresses != 2 || ds[1].DynamicPrefixes != 1 {
		t.Errorf("second dataset block = %+v", ds[1])
	}

	// Per-dataset request counters carry the dataset label.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), `dataset="pools"`) || !strings.Contains(string(metrics), `dataset="dial"`) {
		t.Errorf("/metrics missing dataset labels:\n%s", metrics)
	}
}

// TestServeMultiDatasetWatchDelta drives the incremental reload end to end:
// a small append to one dataset's file must land via the delta path (the
// delta counter moves) without touching the other dataset.
func TestServeMultiDatasetWatchDelta(t *testing.T) {
	dir := t.TempDir()
	natedA := filepath.Join(dir, "a.txt")
	var big bytes.Buffer
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&big, "203.0.113.%d\t%d\n", i, i+2)
	}
	if err := os.WriteFile(natedA, big.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	natedB := filepath.Join(dir, "b.txt")
	if err := os.WriteFile(natedB, []byte("198.51.100.9\t44\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base, cancel, _, _ := startServe(t, []string{
		"-dataset", "pools=" + natedA + ",",
		"-dataset", "dial=" + natedB + ",",
		"-watch", "-watch-interval", "30ms",
	})
	defer cancel()

	// Append one address: 1 op against 64 — well under the delta threshold.
	big.WriteString("198.18.0.1\t9\n")
	if err := os.WriteFile(natedA, big.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := e2e.WaitFor(10*time.Second, 20*time.Millisecond, func() (bool, error) {
		_, body := getJSONStatus(t, base, "/v1/pools/stats")
		return strings.Contains(body, `"nated_addresses":65`), nil
	}); err != nil {
		t.Fatalf("delta reload never landed: %v", err)
	}

	code, body := getJSONStatus(t, base, "/debug/manifest")
	if code != 200 {
		t.Fatalf("/debug/manifest = %d", code)
	}
	var m obs.Manifest
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatal(err)
	}
	var pools, dial *obs.DatasetServingStatus
	for i := range m.Serving.Datasets {
		switch m.Serving.Datasets[i].Name {
		case "pools":
			pools = &m.Serving.Datasets[i]
		case "dial":
			dial = &m.Serving.Datasets[i]
		}
	}
	if pools == nil || pools.Reloads < 1 || pools.DeltaReloads < 1 {
		t.Errorf("pools reload block = %+v, want >=1 delta reload", pools)
	}
	if dial == nil || dial.Reloads != 0 {
		t.Errorf("dial reload block = %+v, want untouched", dial)
	}
}

// TestReloaderCatchesSameStampRewrite pins the content-hash half of
// fileStamp: a rewrite that preserves both size and mtime (as a tool
// restoring timestamps would) must still reload, because the content hash
// moved.
func TestReloaderCatchesSameStampRewrite(t *testing.T) {
	dir := t.TempDir()
	nated := filepath.Join(dir, "nated.txt")
	if err := os.WriteFile(nated, []byte("203.0.113.7\t12\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stamp := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	if err := os.Chtimes(nated, stamp, stamp); err != nil {
		t.Fatal(err)
	}
	data, stamps, err := loadDataset(nated, "")
	if err != nil {
		t.Fatal(err)
	}
	srv := reuseapi.NewServer(data)
	rel := newReloader(datasetSpec{name: defaultDataset, natedF: nated}, true, time.Second, srv, obs.NewRegistry(), data, stamps)

	// Same byte count, same mtime, different content.
	if err := os.WriteFile(nated, []byte("198.51.100.9\t12\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(nated, stamp, stamp); err != nil {
		t.Fatal(err)
	}
	rel.checkOnce()
	if st := rel.status(); st.Reloads != 1 {
		t.Fatalf("same-stamp rewrite not reloaded: %+v", st)
	}
	if v := srv.Snapshot().Verdict(mustAddr(t, "198.51.100.9")); !v.Reused {
		t.Error("rewritten address not serving after same-stamp rewrite")
	}
}

// TestReloaderByteIdenticalRewriteKeepsSnapshot pins the empty-delta path: a
// touch that rewrites identical bytes must count as a reload (watchers see
// the attempt land) but keep the served snapshot — and its ETags — intact.
func TestReloaderByteIdenticalRewriteKeepsSnapshot(t *testing.T) {
	dir := t.TempDir()
	nated := filepath.Join(dir, "nated.txt")
	content := []byte("203.0.113.7\t12\n")
	if err := os.WriteFile(nated, content, 0o644); err != nil {
		t.Fatal(err)
	}
	data, stamps, err := loadDataset(nated, "")
	if err != nil {
		t.Fatal(err)
	}
	srv := reuseapi.NewServer(data)
	rel := newReloader(datasetSpec{name: defaultDataset, natedF: nated}, true, time.Second, srv, obs.NewRegistry(), data, stamps)
	before := srv.Snapshot()

	time.Sleep(5 * time.Millisecond) // ensure the rewrite can move mtime
	if err := os.WriteFile(nated, content, 0o644); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if err := os.Chtimes(nated, now, now); err != nil {
		t.Fatal(err)
	}
	rel.checkOnce()
	if st := rel.status(); st.Reloads != 1 {
		t.Fatalf("byte-identical rewrite not counted as a reload: %+v", st)
	}
	if srv.Snapshot() != before {
		t.Error("byte-identical rewrite recompiled the snapshot")
	}
}

func mustAddr(t *testing.T, s string) iputil.Addr {
	t.Helper()
	a, err := iputil.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
