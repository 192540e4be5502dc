// Paper-scale world tests and the BENCH_scale.json ratchet.
//
// The paper's observed population is millions of addresses, and the
// original simulator spent ~11 KiB of heap per host — a multi-million-host
// world did not fit in RAM alongside the crawler. These tests pin what the
// sharded fabric and the pooled node state claim:
//
//   - TestScale*: sharded runs stay deterministic and scheduling-invariant
//     (shard-count invariance is pinned by TestResilienceShardInvariance).
//   - BenchmarkStudyScale: measures hosts/sec, bytes/host and peak heap at
//     world scales 1/10/100 and appends the rows to BENCH_scale.json; the
//     per-host footprint must undercut the pre-refactor baseline by >= 5x
//     at scale >= 10 or the benchmark fails (the ratchet).
package reuseblock_test

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/core"
)

// renderScaleStudy runs a small sharded study and returns the rendered
// report.
func renderScaleStudy(t *testing.T, seed int64, shards, workers int) (*core.Study, string) {
	t.Helper()
	wp := blgen.DefaultParams(seed)
	wp.Scale = 0.05
	s := core.NewStudy(core.Config{
		Seed:          seed,
		World:         &wp,
		CrawlDuration: 2 * time.Hour,
		Vantages:      2,
		Workers:       workers,
		Shards:        shards,
		SkipICMP:      true,
	})
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("seed %d shards %d workers %d: %v", seed, shards, workers, err)
	}
	return s, rep.Render()
}

// TestScaleShardedStudySmoke: the scale configuration (sharded fabric, two
// vantages) must still crawl a world end to end and confirm NATed
// addresses — the fast gate run under -race in CI.
func TestScaleShardedStudySmoke(t *testing.T) {
	s, _ := renderScaleStudy(t, 1, 4, 2)
	if s.CrawlStats.UniqueIPs == 0 {
		t.Fatal("sharded crawl observed no addresses")
	}
	if len(s.NATed) == 0 {
		t.Fatal("sharded crawl confirmed no NATed addresses")
	}
}

// TestScaleShardedWorkerInvariance: a sharded run is a pure function of its
// seed — the vantage fan-out worker pool and the intra-window shard worker
// pool must both be invisible in the output bytes.
func TestScaleShardedWorkerInvariance(t *testing.T) {
	_, seq := renderScaleStudy(t, 1, 4, 1)
	_, par := renderScaleStudy(t, 1, 4, 4)
	if seq != par {
		t.Errorf("sharded study workers=4 diverged from workers=1 at %s", firstDiff(seq, par))
	}
}

// TestScaleShardedRepeatable: same configuration twice, identical bytes.
func TestScaleShardedRepeatable(t *testing.T) {
	_, a := renderScaleStudy(t, 2, 4, 2)
	_, b := renderScaleStudy(t, 2, 4, 2)
	if a != b {
		t.Errorf("sharded study not repeatable: diverges at %s", firstDiff(a, b))
	}
}

// ---------------------------------------------------------------------------
// BENCH_scale.json
// ---------------------------------------------------------------------------

// Pre-refactor per-host heap footprints, measured on commit e9c9148 (before
// internal/ipset, pooled node/NAT/binding state, the by-value node RNG and
// the sharded event loop): BuildSwarm(Seed 1) heap delta over host count.
const (
	baselineBytesPerHostScale1  = 11269
	baselineBytesPerHostScale10 = 11260
	// scaleRatchetFactor is the required improvement at scale >= 10.
	scaleRatchetFactor = 5
)

// ScaleBenchRecord is one BENCH_scale.json row.
type ScaleBenchRecord struct {
	Scenario       string  `json:"scenario"`
	When           string  `json:"when"`
	Seed           int64   `json:"seed"`
	Scale          float64 `json:"scale"`
	Hosts          int     `json:"hosts"`
	Shards         int     `json:"shards"`
	BuildSec       float64 `json:"build_sec"`
	Run30mSec      float64 `json:"run30m_sec"`
	HostsPerSec    float64 `json:"hosts_per_sec"`
	BytesPerHost   float64 `json:"bytes_per_host"`
	PeakAllocBytes uint64  `json:"peak_alloc_bytes"`
	BaselineBytes  float64 `json:"baseline_bytes_per_host"`
	FootprintRatio float64 `json:"footprint_ratio"`
	NumCPU         int     `json:"num_cpu"`
	GoMaxProcs     int     `json:"gomaxprocs"`
}

func appendScaleRecord(path string, rec ScaleBenchRecord) error {
	var recs []json.RawMessage
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &recs); err != nil {
			return fmt.Errorf("existing %s is not a bench-record array: %w", path, err)
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
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// scaleRecordOnce guards the ratchet file against duplicate rows when the
// benchmark harness re-enters a sub-benchmark to hit -benchtime.
var scaleRecordOnce sync.Map

// measureScale builds the sharded swarm for one world scale,
// measures its heap footprint, runs 30 simulated minutes, and enforces the
// footprint ratchet.
func measureScale(b *testing.B, scale float64) ScaleBenchRecord {
	b.Helper()
	wp := blgen.DefaultParams(1)
	wp.Scale = scale
	w := blgen.Generate(wp)
	hosts := len(w.BTUsers)
	if hosts == 0 {
		b.Fatal("empty world")
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	buildStart := time.Now()
	swarm, err := core.BuildSwarm(w, core.SwarmConfig{
		Seed:         1,
		Shards:       4,
		ShardWorkers: runtime.GOMAXPROCS(0),
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	buildSec := time.Since(buildStart).Seconds()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	// The world must stay live through both readings so the heap delta is
	// the swarm alone (otherwise the second GC collects the world and the
	// unsigned delta underflows).
	runtime.KeepAlive(w)
	bytesPerHost := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(hosts)

	runStart := time.Now()
	swarm.RunFor(30 * time.Minute)
	runSec := time.Since(runStart).Seconds()
	runtime.KeepAlive(swarm)

	baseline := float64(baselineBytesPerHostScale1)
	if scale >= 10 {
		baseline = baselineBytesPerHostScale10
	}
	rec := ScaleBenchRecord{
		Scenario:       "study-scale",
		When:           time.Now().UTC().Format(time.RFC3339),
		Seed:           1,
		Scale:          scale,
		Hosts:          hosts,
		Shards:         4,
		BuildSec:       buildSec,
		Run30mSec:      runSec,
		HostsPerSec:    float64(hosts) / (buildSec + runSec),
		BytesPerHost:   bytesPerHost,
		PeakAllocBytes: m1.HeapAlloc,
		BaselineBytes:  baseline,
		FootprintRatio: baseline / bytesPerHost,
		NumCPU:         runtime.NumCPU(),
		GoMaxProcs:     runtime.GOMAXPROCS(0),
	}
	if scale >= 10 && rec.FootprintRatio < scaleRatchetFactor {
		b.Fatalf("bytes/host = %.0f at scale %g — only %.1fx under the %.0f pre-refactor baseline, ratchet requires %dx",
			bytesPerHost, scale, rec.FootprintRatio, baseline, scaleRatchetFactor)
	}
	return rec
}

// BenchmarkStudyScale is the paper-scale ratchet: world scales 1, 10 and 100
// (roughly 8 K, 95 K and 950 K live hosts). Each sub-benchmark performs one
// full measurement regardless of b.N — run with -benchtime=1x, as the
// nightly job does — and appends its row to BENCH_scale.json (override the
// path with SCALE_BENCH_OUT; set SCALE_BENCH_MAX to cap the largest scale
// for quick local runs).
func BenchmarkStudyScale(b *testing.B) {
	maxScale := 100.0
	if v := os.Getenv("SCALE_BENCH_MAX"); v != "" {
		fmt.Sscanf(v, "%g", &maxScale)
	}
	out := os.Getenv("SCALE_BENCH_OUT")
	if out == "" {
		out = "BENCH_scale.json"
	}
	for _, scale := range []float64{1, 10, 100} {
		if scale > maxScale {
			continue
		}
		scale := scale
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			rec := measureScale(b, scale)
			b.ReportMetric(rec.HostsPerSec, "hosts/s")
			b.ReportMetric(rec.BytesPerHost, "bytes/host")
			b.ReportMetric(float64(rec.PeakAllocBytes)/(1<<20), "peak-MiB")
			if _, dup := scaleRecordOnce.LoadOrStore(scale, true); !dup {
				if err := appendScaleRecord(out, rec); err != nil {
					b.Fatalf("recording %s: %v", out, err)
				}
			}
			b.Logf("scale=%g: %d hosts, %.0f bytes/host (%.1fx under baseline), build %.1fs, run30m %.1fs",
				scale, rec.Hosts, rec.BytesPerHost, rec.FootprintRatio, rec.BuildSec, rec.Run30mSec)
		})
	}
}
