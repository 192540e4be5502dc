// Benchmarks for the serving layer rebuild: the compiled-snapshot reuseapi
// server against a benchmark-local replica of the pre-snapshot design (RWMutex
// around a map dataset, per-request url.Values parsing, a 33-probe covering
// loop, json.Encoder verdicts, and per-request list rendering). The recorded
// BENCH_serve.json pins the speedup, which must stay at least 5x on the
// /v1/check hot path at 100k NATed addresses.
package reuseblock_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/blocklist"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/reuseapi"
)

const (
	serveBenchAddrs    = 100_000
	serveBenchPrefixes = 512
)

// serveBenchDataset builds the fixed 100k-address dataset both server
// variants serve. Deterministic so the two variants answer identically.
func serveBenchDataset() *reuseapi.Dataset {
	return serveBenchDatasetSized(serveBenchAddrs, serveBenchPrefixes)
}

func serveBenchDatasetSized(addrs, prefixes int) *reuseapi.Dataset {
	rng := rand.New(rand.NewSource(7))
	data := &reuseapi.Dataset{
		NATUsers:        make(map[iputil.Addr]int, addrs),
		DynamicPrefixes: iputil.NewPrefixSet(),
		Generated:       time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC),
	}
	for len(data.NATUsers) < addrs {
		a := iputil.AddrFrom4(byte(1+rng.Intn(220)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		data.NATUsers[a] = 2 + rng.Intn(400)
	}
	for i := 0; i < prefixes; i++ {
		a := iputil.AddrFrom4(byte(1+rng.Intn(220)), byte(rng.Intn(256)), byte(rng.Intn(256)), 0)
		data.DynamicPrefixes.Add(iputil.PrefixFrom(a, 16+rng.Intn(9)))
	}
	return data
}

// serveBenchRequests is a fixed query mix against the dataset: NATed hits,
// dynamic-prefix hits, and clean misses, pre-built so request construction is
// out of the measured loop.
func serveBenchRequests(data *reuseapi.Dataset) []*http.Request {
	rng := rand.New(rand.NewSource(11))
	var addrs []iputil.Addr
	for a := range data.NATUsers {
		addrs = append(addrs, a)
		if len(addrs) == 256 {
			break
		}
	}
	for _, p := range data.DynamicPrefixes.Sorted()[:64] {
		addrs = append(addrs, p.Nth(0))
	}
	for i := 0; i < 192; i++ {
		addrs = append(addrs, iputil.AddrFrom4(byte(1+rng.Intn(220)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))))
	}
	reqs := make([]*http.Request, len(addrs))
	for i, a := range addrs {
		reqs[i] = httptest.NewRequest(http.MethodGet, "/v1/check?ip="+a.String(), nil)
	}
	return reqs
}

// lockedServer replicates the pre-snapshot serving design for comparison:
// every request takes an RWMutex read lock, /v1/check parses url.Values,
// probes all 33 prefix lengths against the PrefixSet map and runs a verdict
// through json.Encoder, and /v1/list re-collects, re-sorts and re-renders the
// whole dataset per request.
type lockedServer struct {
	mu   sync.RWMutex
	data *reuseapi.Dataset
}

func (s *lockedServer) snapshot() *reuseapi.Dataset {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.data
}

func (s *lockedServer) handleCheck(w http.ResponseWriter, r *http.Request) {
	ipStr := r.URL.Query().Get("ip")
	addr, err := iputil.ParseAddr(ipStr)
	if err != nil {
		http.Error(w, "malformed ip", http.StatusBadRequest)
		return
	}
	data := s.snapshot()
	v := reuseapi.Verdict{IP: addr.String()}
	if users, ok := data.NATUsers[addr]; ok {
		v.Reused, v.NATed, v.Users = true, true, users
	}
	for bits := 32; bits >= 0; bits-- {
		p := iputil.PrefixFrom(addr, bits)
		if data.DynamicPrefixes.Contains(p) {
			v.Reused, v.Dynamic, v.Prefix = true, true, p.String()
			break
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (s *lockedServer) handleList(w http.ResponseWriter, r *http.Request) {
	data := s.snapshot()
	addrs := iputil.NewSet()
	for a := range data.NATUsers {
		addrs.Add(a)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = blocklist.WritePlain(w, addrs,
		fmt.Sprintf("NATed reused addresses, generated %s", data.Generated.UTC().Format(time.RFC3339)))
}

func (s *lockedServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/check", s.handleCheck)
	mux.HandleFunc("/v1/list", s.handleList)
	return mux
}

// serveHandler serves srv as the default dataset of a one-entry Registry,
// the serving path every dataset takes.
func serveHandler(b *testing.B, srv *reuseapi.Server) http.Handler {
	b.Helper()
	g := reuseapi.NewRegistry()
	if err := g.Register("default", srv); err != nil {
		b.Fatal(err)
	}
	return g.Handler()
}

// benchRW is a no-op ResponseWriter so the benchmarks measure handler cost,
// not recorder bookkeeping.
type benchRW struct{ h http.Header }

func (w *benchRW) Header() http.Header         { return w.h }
func (w *benchRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *benchRW) WriteHeader(int)             {}

// serveBenchOut accumulates both benchmarks' numbers; whichever finishes
// last writes the complete BENCH_serve.json.
var serveBenchOut = struct {
	sync.Mutex
	check, list  map[string]int64
	checkAllocs  map[string]float64
	batchNsPerIP int64
	deltaReload  []deltaReloadRow
}{
	check:       map[string]int64{},
	list:        map[string]int64{},
	checkAllocs: map[string]float64{},
}

// deltaReloadRow is one BENCH_serve.json delta-reload entry: the cost of
// swapping a churned dataset in via a full Compile versus the incremental
// ApplyDelta path, at one world scale.
type deltaReloadRow struct {
	Scale           int     `json:"scale"`
	NATedAddrs      int     `json:"nated_addrs"`
	DynamicPrefixes int     `json:"dynamic_prefixes"`
	DeltaOps        int     `json:"delta_ops"`
	FullNsPerOp     int64   `json:"full_compile_ns_per_op"`
	DeltaNsPerOp    int64   `json:"apply_delta_ns_per_op"`
	Speedup         float64 `json:"speedup"`
}

type serveBenchVariant struct {
	Variant     string   `json:"variant"` // "locked_map" or "snapshot"
	NsPerOp     int64    `json:"ns_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

func writeServeBench(b *testing.B) {
	serveBenchOut.Lock()
	defer serveBenchOut.Unlock()
	speedup := func(m map[string]int64) float64 {
		if m["locked_map"] == 0 || m["snapshot"] == 0 {
			return 0
		}
		return float64(m["locked_map"]) / float64(m["snapshot"])
	}
	variants := func(m map[string]int64, allocs map[string]float64) []serveBenchVariant {
		var out []serveBenchVariant
		for _, name := range []string{"locked_map", "snapshot"} {
			if ns, ok := m[name]; ok {
				v := serveBenchVariant{Variant: name, NsPerOp: ns}
				if allocs != nil {
					a := allocs[name]
					v.AllocsPerOp = &a
				}
				out = append(out, v)
			}
		}
		return out
	}
	out := struct {
		Benchmark       string              `json:"benchmark"`
		NumCPU          int                 `json:"num_cpu"`
		GOMAXPROCS      int                 `json:"gomaxprocs"`
		NATedAddrs      int                 `json:"nated_addrs"`
		DynamicPrefixes int                 `json:"dynamic_prefixes"`
		Check           []serveBenchVariant `json:"check"`
		CheckSpeedup    float64             `json:"check_speedup"`
		BatchNsPerIP    int64               `json:"batch_ns_per_ip,omitempty"`
		List            []serveBenchVariant `json:"list"`
		ListSpeedup     float64             `json:"list_speedup"`
		DeltaReload     []deltaReloadRow    `json:"delta_reload,omitempty"`
	}{
		Benchmark:       "BenchmarkServeCheck+BenchmarkServeList+BenchmarkServeDeltaReload",
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		NATedAddrs:      serveBenchAddrs,
		DynamicPrefixes: serveBenchPrefixes,
		Check:           variants(serveBenchOut.check, serveBenchOut.checkAllocs),
		CheckSpeedup:    speedup(serveBenchOut.check),
		BatchNsPerIP:    serveBenchOut.batchNsPerIP,
		List:            variants(serveBenchOut.list, nil),
		ListSpeedup:     speedup(serveBenchOut.list),
		DeltaReload:     serveBenchOut.deltaReload,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_serve.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServeCheck drives the /v1/check query mix through the locked-map
// replica and the compiled-snapshot server, plus the batch POST endpoint,
// and records per-request timings and allocations.
func BenchmarkServeCheck(b *testing.B) {
	data := serveBenchDataset()
	reqs := serveBenchRequests(data)

	measure := func(name string, h http.Handler) {
		b.Run(name, func(b *testing.B) {
			w := &benchRW{h: make(http.Header, 4)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(w, reqs[i%len(reqs)])
			}
			b.StopTimer()
			allocs := testing.AllocsPerRun(1000, func() {
				h.ServeHTTP(w, reqs[0])
			})
			serveBenchOut.Lock()
			serveBenchOut.check[name] = b.Elapsed().Nanoseconds() / int64(b.N)
			serveBenchOut.checkAllocs[name] = allocs
			serveBenchOut.Unlock()
		})
	}

	locked := &lockedServer{data: data}
	measure("locked_map", locked.handler())
	measure("snapshot", serveHandler(b, reuseapi.NewServer(data)))

	b.Run("snapshot-batch", func(b *testing.B) {
		h := serveHandler(b, reuseapi.NewServer(data))
		var ips []string
		for _, r := range reqs[:100] {
			ips = append(ips, r.URL.Query().Get("ip"))
		}
		payload, err := json.Marshal(ips)
		if err != nil {
			b.Fatal(err)
		}
		w := &benchRW{h: make(http.Header, 4)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(payload))
			h.ServeHTTP(w, r)
		}
		b.StopTimer()
		perIP := b.Elapsed().Nanoseconds() / int64(b.N) / int64(len(ips))
		b.ReportMetric(float64(perIP), "ns/ip")
		serveBenchOut.Lock()
		serveBenchOut.batchNsPerIP = perIP
		serveBenchOut.Unlock()
	})

	writeServeBench(b)
}

// BenchmarkServeList measures the full-list endpoint: the locked replica
// re-sorts and re-renders 100k addresses per request; the snapshot serves
// precomputed bytes.
func BenchmarkServeList(b *testing.B) {
	data := serveBenchDataset()
	req := httptest.NewRequest(http.MethodGet, "/v1/list", nil)

	// Keep the replica honest: its per-request render must match the
	// snapshot's precomputed body byte for byte.
	locked := &lockedServer{data: data}
	snap := serveHandler(b, reuseapi.NewServer(data))
	wantW, gotW := httptest.NewRecorder(), httptest.NewRecorder()
	locked.handler().ServeHTTP(wantW, req)
	snap.ServeHTTP(gotW, httptest.NewRequest(http.MethodGet, "/v1/list", nil))
	if !bytes.Equal(wantW.Body.Bytes(), gotW.Body.Bytes()) {
		b.Fatal("locked-map replica and snapshot render different /v1/list bodies")
	}

	for _, v := range []struct {
		name string
		h    http.Handler
	}{{"locked_map", locked.handler()}, {"snapshot", snap}} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			w := &benchRW{h: make(http.Header, 4)}
			b.ReportAllocs()
			b.SetBytes(int64(len(wantW.Body.Bytes())))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.h.ServeHTTP(w, req)
			}
			b.StopTimer()
			serveBenchOut.Lock()
			serveBenchOut.list[v.name] = b.Elapsed().Nanoseconds() / int64(b.N)
			serveBenchOut.Unlock()
		})
	}

	writeServeBench(b)
}

// serveBenchDelta is the reload churn a watch tick typically carries: one
// provider's pool turns over — every tracked address in two /8s is dropped,
// about as many fresh ones appear in one of them — plus a little prefix
// movement. Clustered on purpose: that locality is what the segment-level
// splicing in ApplyDelta exploits, and what real churn looks like.
func serveBenchDelta(data *reuseapi.Dataset) *reuseapi.Delta {
	rng := rand.New(rand.NewSource(13))
	delta := &reuseapi.Delta{
		AddNAT:    map[iputil.Addr]int{},
		Generated: data.Generated.Add(time.Hour),
	}
	for a := range data.NATUsers {
		if top := byte(a >> 24); top == 100 || top == 101 {
			delta.RemoveNAT = append(delta.RemoveNAT, a)
		}
	}
	cluster := iputil.AddrFrom4(100, 0, 0, 0)
	for i := 0; i < len(data.NATUsers)/100; i++ {
		delta.AddNAT[cluster|iputil.Addr(rng.Intn(1<<24))] = 2 + rng.Intn(400)
	}
	prefixes := data.DynamicPrefixes.Sorted()
	delta.RemovePrefixes = prefixes[:2]
	delta.AddPrefixes = []iputil.Prefix{
		iputil.PrefixFrom(cluster, 12),
		iputil.PrefixFrom(iputil.AddrFrom4(100, 64, 0, 0), 14),
	}
	return delta
}

// BenchmarkServeDeltaReload prices a hot reload both ways at two world
// scales: the full recompile the classic -watch path pays versus the
// incremental ApplyDelta the diffing reloader pays for the same churn. The
// recorded speedup at scale 10 must stay at least 5x — that gap is why the
// reloader diffs at all.
func BenchmarkServeDeltaReload(b *testing.B) {
	for _, sc := range []struct{ scale, addrs, prefixes int }{
		{1, 10_000, 64},
		{10, 100_000, 512},
	} {
		base := serveBenchDatasetSized(sc.addrs, sc.prefixes)
		delta := serveBenchDelta(base)
		next := delta.ApplyTo(base)
		snap := reuseapi.Compile(base)

		// Keep the comparison honest: the two paths must produce the same
		// served bytes before their costs are worth comparing.
		wantBodies := reuseapi.Compile(next).PrecomputedBodies()
		gotBodies := snap.ApplyDelta(delta).PrecomputedBodies()
		for name, w := range wantBodies {
			if g := gotBodies[name]; !bytes.Equal(g.Body, w.Body) || !bytes.Equal(g.Gzip, w.Gzip) || g.ETag != w.ETag {
				b.Fatalf("scale %d: ApplyDelta and full Compile disagree on %s", sc.scale, name)
			}
		}

		var fullNs, deltaNs int64
		b.Run(fmt.Sprintf("scale%d/full_compile", sc.scale), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = reuseapi.Compile(next)
			}
			b.StopTimer()
			fullNs = b.Elapsed().Nanoseconds() / int64(b.N)
		})
		b.Run(fmt.Sprintf("scale%d/apply_delta", sc.scale), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = snap.ApplyDelta(delta)
			}
			b.StopTimer()
			deltaNs = b.Elapsed().Nanoseconds() / int64(b.N)
		})

		row := deltaReloadRow{
			Scale:           sc.scale,
			NATedAddrs:      sc.addrs,
			DynamicPrefixes: sc.prefixes,
			DeltaOps:        delta.Ops(),
			FullNsPerOp:     fullNs,
			DeltaNsPerOp:    deltaNs,
		}
		if deltaNs > 0 {
			row.Speedup = float64(fullNs) / float64(deltaNs)
		}
		serveBenchOut.Lock()
		serveBenchOut.deltaReload = append(serveBenchOut.deltaReload, row)
		serveBenchOut.Unlock()
	}

	writeServeBench(b)
}
