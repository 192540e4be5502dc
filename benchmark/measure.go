package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric, its unit and, for a per-layer
// metric, the layer that measures it.
type metricDef struct {
	Name  string
	Unit  string
	Layer string
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run. Each workload defines them for its own unit of work; see
// README.md for the per-workload meaning.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "p50_ms", Unit: "ms"},
	{Name: "tail_ms", Unit: "ms"},
	{Name: "throughput_per_s", Unit: "1/s"},
	{Name: "cpu_s", Unit: "s"},
	{Name: "peak_rss_mb", Unit: "MB"},
}

// perLayer are the single-layer metrics every traced run prints. A traced
// run must measure every metric of the layers its workload lists; a layer
// the workload never calls reports 0 with a sample count of 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"blgen.generate_s", "s", "blgen"},
		{"blgen.alloc_mb", "MB", "blgen"},
		{"core.build_swarm_s", "s", "swarm"},
		{"core.swarm_bytes_per_host", "B", "swarm"},
		{"crawler.crawl_s", "s", "crawl"},
		{"netsim.ns_per_datagram", "ns", "crawl"},
		{"netsim.datagrams", "count", "crawl"},
		{"netsim.delivered", "count", "crawl"},
		{"netsim.dropped", "count", "crawl"},
		{"netsim.no_route", "count", "crawl"},
		{"crawler.queries", "count", "crawl"},
		{"crawler.replies", "count", "crawl"},
		{"crawler.response_rate", "ratio", "crawl"},
		{"crawler.unique_ips", "count", "crawl"},
		{"crawler.nated", "count", "crawl"},
		{"ripeatlas.detect_s", "s", "ripeatlas"},
		{"icmpsurvey.run_s", "s", "icmpsurvey"},
		{"icmpsurvey.probes", "count", "icmpsurvey"},
		{"analysis.join_s", "s", "analysis"},
		{"core.render_s", "s", "report"},
		{"runtime.gc_cpu_s", "s", "runtime"},
		{"runtime.gc_cycles", "count", "runtime"},
		{"runtime.heap_peak_mb", "MB", "runtime"},
		{"reuseapi.verdict_ns", "ns", "lookup"},
		{"reuseapi.handler_ns", "ns", "handler"},
		{"reuseapi.handler_allocs", "count", "handler"},
		{"http.rtt_p50_us", "us", "http"},
		{"http.overhead_us", "us", "http"},
		{"loadgen.scheduled", "count", "loadgen"},
		{"loadgen.sent", "count", "loadgen"},
		{"loadgen.lag_p99_ms", "ms", "loadgen"},
		{"reuseapi.compile_s", "s", "compile"},
		{"reuseapi.diff_ms", "ms", "reload"},
		{"reuseapi.apply_delta_ms", "ms", "reload"},
		{"reuseapi.update_ms", "ms", "reload"},
		{"reuseapi.delta_ops", "count", "reload"},
		{"reuseapi.list_bytes", "B", "bulk"},
		{"reuseapi.list_304_share", "ratio", "bulk"},
		{"reuseapi.batch_ns_per_ip", "ns", "handler"},
		{"trace.spans", "count", "trace"},
	}
	for _, m := range endToEnd {
		defs = append(defs, metricDef{"trace.overhead." + m.Name, "%", "trace"})
	}
	return defs
}()

// metric is one measured value with the number of samples behind it.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// outcome collects what one workload run measured and how many of its
// operations failed a correctness gate.
type outcome struct {
	metrics   []metric
	attempted int
	failed    int
	failures  []string
}

func (o *outcome) add(name, unit string, v float64, n int) {
	o.metrics = append(o.metrics, metric{Name: name, Value: v, Unit: unit, N: n})
}

// gate counts one checked operation and records it as failed when err is
// non-nil.
func (o *outcome) gate(what string, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.failures) < 20 {
			o.failures = append(o.failures, what+": "+err.Error())
		}
	}
}

func (o *outcome) lookup(name string) (metric, bool) {
	for _, m := range o.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// repeatSetup runs a workload's set-up at least three times, and again while
// the runs so far took under three seconds, up to seven; setup_s is the
// median of the returned seconds. Cheap set-ups thus get more samples.
func repeatSetup(setup func() (time.Duration, error)) ([]float64, error) {
	var secs []float64
	var total time.Duration
	for len(secs) < 3 || (total < 3*time.Second && len(secs) < 7) {
		d, err := setup()
		if err != nil {
			return nil, err
		}
		total += d
		secs = append(secs, d.Seconds())
	}
	return secs, nil
}

// median returns the middle value (mean of the middle two) of xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// restartPeakRSS returns freed memory to the kernel and restarts the VmHWM
// high-water mark at the current RSS. An untraced run's peak_rss_mb thus
// covers its measured part with the inputs built, not whichever of the
// repeated set-ups the collector caught last; a traced run uses it to give
// its traced and untraced halves a peak each. It reports whether the kernel
// accepted the restart.
func restartPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// errRSSReset fails a traced run whose VmHWM mark could not be restarted:
// its traced and untraced halves would share one peak.
var errRSSReset = errors.New("the kernel refused to restart the VmHWM mark (/proc/self/clear_refs), so trace.overhead.peak_rss_mb cannot be measured")

// runtimeSample reads the Go runtime counters the per-layer metrics use.
type runtimeSample struct {
	gcCPU    float64 // seconds of CPU spent in the garbage collector
	gcCycles uint64
	allocs   uint64 // cumulative heap bytes allocated
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		out.allocs = s[2].Value.Uint64()
	}
	return out
}

// heapWatch samples the live heap every few milliseconds until stopped and
// keeps the largest value seen: runtime/metrics has no heap high-water mark.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peakMB stops the watcher and returns the peak live heap in MB.
func (h *heapWatch) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// addRuntime records the Go runtime's per-layer metrics between two samples.
func addRuntime(o *outcome, before, after runtimeSample, heapPeakMB float64) {
	o.add("runtime.gc_cpu_s", "s", after.gcCPU-before.gcCPU, 1)
	o.add("runtime.gc_cycles", "count", float64(after.gcCycles-before.gcCycles), 1)
	o.add("runtime.heap_peak_mb", "MB", heapPeakMB, 1)
}

// overhead is the traced value's excess over the untraced one, in percent.
func overhead(traced, untraced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return (traced - untraced) / untraced * 100
}

// rateOverhead is the traced rate's shortfall against the untraced one, in
// percent: like overhead for a time, it grows as the tracer costs more.
func rateOverhead(traced, untraced float64) float64 {
	return -overhead(traced, untraced)
}

// stamp is the environment every result records.
type stamp struct {
	Commit       string         `json:"commit"`
	SourceSHA256 string         `json:"source_sha256"`
	GoVersion    string         `json:"go_version"`
	NumCPU       int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      int            `json:"seconds"`
	Traced       bool           `json:"traced"`
	Params       map[string]any `json:"params"`
}

// commit is set at link time by run.sh when the source tree is a git
// checkout; otherwise the source digest identifies the code.
var commit = "unknown"

var (
	sourceOnce sync.Once
	sourceSum  string
)

// sourceDigest hashes the repository module's Go sources and go.mod, and the
// benchmark's own sources, go.mod and BENCHMARK.json (the root is the working
// directory), so a result can be tied to the code that produced it even
// where no git metadata exists.
func sourceDigest() string {
	sourceOnce.Do(func() {
		var files []string
		for _, dir := range []string{"internal", "cmd", "benchmark"} {
			_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
				if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
					files = append(files, path)
				}
				return nil
			})
		}
		sort.Strings(files)
		h := sha256.New()
		for _, f := range append([]string{"go.mod", "benchmark/go.mod", "BENCHMARK.json"}, files...) {
			b, err := os.ReadFile(f)
			if err != nil {
				continue
			}
			h.Write([]byte(f))
			h.Write(b)
		}
		sourceSum = hex.EncodeToString(h.Sum(nil))
	})
	return sourceSum
}

func newStamp(workload string, seed int64, seconds int, traced bool, params map[string]any) stamp {
	goVersion := runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok && bi.GoVersion != "" {
		goVersion = bi.GoVersion
	}
	return stamp{
		Commit:       commit,
		SourceSHA256: sourceDigest(),
		GoVersion:    goVersion,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Workload:     workload,
		Seed:         seed,
		Seconds:      seconds,
		Traced:       traced,
		Params:       params,
	}
}
