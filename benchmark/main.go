// Command benchmark measures the reproduction end to end and layer by layer.
//
// One invocation runs one named workload from a seed:
//
//	benchmark --workload study --seed 1 --seconds 10 --trace 0
//
// Untraced runs (--trace 0) measure the end-to-end metrics; traced runs
// (--trace 1) replay the workload one public call at a time, record a span
// around every call into a layer, write the spans as JSONL, and report the
// per-layer metrics plus the tracing overhead. Run it from the repository
// root; see README.md in this directory for the workloads and metrics.
//
// Standard output ends with two JSON lines: a report carrying the
// environment stamp and every metric with its unit and sample count, then
// the summary {"correct", "attempted", "failed", "metrics"}. The exit code
// is non-zero when any correctness gate fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// workload is one named benchmark input set; README.md says why each exists
// and why study-scale and serve-check are left out of BENCHMARK.json. Its
// layers are the per-layer metric groups (metricDef.Layer) a traced run of it
// must measure.
type workload struct {
	params func(seed int64) map[string]any
	layers []string
	run    func(cfg runConfig) (*outcome, error)
}

var (
	studyLayers = []string{"blgen", "swarm", "crawl", "ripeatlas", "icmpsurvey", "analysis", "report", "runtime", "trace"}
	serveLayers = []string{"runtime", "lookup", "handler", "http", "loadgen", "compile", "trace"}
)

var workloads = map[string]workload{
	"study": {
		params: studyDefault.describe,
		layers: studyLayers,
		run:    func(cfg runConfig) (*outcome, error) { return runStudy(studyDefault, cfg) },
	},
	"study-scale": {
		params: studyScale.describe,
		// The scale study skips the ICMP survey.
		layers: slices.DeleteFunc(slices.Clone(studyLayers), func(l string) bool { return l == "icmpsurvey" }),
		run:    func(cfg runConfig) (*outcome, error) { return runStudy(studyScale, cfg) },
	},
	"serve-check": {
		params: func(int64) map[string]any { return serveCheck.describe() },
		layers: serveLayers,
		run:    func(cfg runConfig) (*outcome, error) { return runServe(serveCheck, cfg) },
	},
	"serve-churn": {
		params: func(int64) map[string]any { return serveChurn.describe() },
		layers: append(slices.Clone(serveLayers), "reload", "bulk"),
		run:    func(cfg runConfig) (*outcome, error) { return runServe(serveChurn, cfg) },
	},
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	spans    string // JSONL span file of a traced run
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (study, serve-churn; also study-scale, serve-check)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "how long the measured part runs")
	trace := fs.Int("trace", 0, "1 replays the workload traced and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q or bad --seconds/--trace\n", *name)
		fs.Usage()
		return 2
	}
	// One Go processor per CPU, whatever the environment says: the results
	// are stamped with both so a reader can tell.
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := runConfig{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		spans:    filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.jsonl", *name, *seed)),
	}

	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", *name, err)
		return 1
	}
	if !cfg.traced {
		out.add("peak_rss_mb", "MB", peakRSSMB(), 1)
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	summary, err := summarize(out, defs, w.layers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", *name, err)
		return 1
	}
	failShare := float64(out.failed) / float64(out.attempted)
	out.add("fail_share", "ratio", failShare, out.attempted)

	report := struct {
		Stamp    stamp    `json:"stamp"`
		Metrics  []metric `json:"metrics"`
		Failures []string `json:"failures,omitempty"`
	}{newStamp(*name, *seed, *seconds, cfg.traced, w.params(*seed)), out.metrics, out.failures}
	printTable(out)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(report); err != nil {
		return 1
	}
	if err := enc.Encode(summary); err != nil {
		return 1
	}
	if out.failed > 0 {
		for _, f := range out.failures {
			fmt.Fprintln(os.Stderr, "benchmark: FAIL", f)
		}
		return 1
	}
	return 0
}

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]summaryItem `json:"metrics"`
}

type summaryItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize picks the metrics of defs out of o. Every end-to-end metric, and
// every per-layer metric of a layer in runs, must have been measured; a
// metric of a layer the workload never calls is 0 with a sample count of 0.
func summarize(o *outcome, defs []metricDef, runs []string) (summaryLine, error) {
	if o.attempted == 0 {
		return summaryLine{}, fmt.Errorf("no operation was attempted")
	}
	s := summaryLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]summaryItem, len(defs))}
	for _, d := range defs {
		m, ok := o.lookup(d.Name)
		if !ok {
			if d.Layer == "" || slices.Contains(runs, d.Layer) {
				return summaryLine{}, fmt.Errorf("metric %s was not measured", d.Name)
			}
			o.add(d.Name, d.Unit, 0, 0)
			m = metric{Unit: d.Unit}
		}
		if m.Unit != d.Unit {
			return summaryLine{}, fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		}
		s.Metrics[d.Name] = summaryItem{Value: m.Value, Unit: m.Unit}
	}
	return s, nil
}

// printTable writes the human-readable metric table to standard error.
func printTable(o *outcome) {
	ms := append([]metric(nil), o.metrics...)
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	for _, m := range ms {
		fmt.Fprintf(os.Stderr, "%-32s %16.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	fmt.Fprintf(os.Stderr, "%-32s %16d of %d failed\n", "operations", o.failed, o.attempted)
}
