// Command blserve serves a reused-address dataset over HTTP — the release
// form of the paper's published list. Point it at the files the pipeline
// produces (blcrawl -out / -replay output and bldetect -prefixes-out), or
// let it generate a synthetic study's list.
//
// Usage:
//
//	blserve -nated FILE -dynamic FILE [-addr :8080] [-watch] [-dataset-faults NAME]
//	blserve -dataset NAME=NATED,DYN [-dataset NAME2=NATED2,DYN2 ...] [-watch]
//	blserve -generate [-seed N] [-scale F] [-addr :8080] [-pprof]
//
// Every server is a set of named datasets behind one listener (a
// reuseapi.Registry). -dataset (repeatable) names each one; -nated/-dynamic
// is shorthand for -dataset default=NATED,DYN, and -generate serves the
// synthetic study's list as dataset "default". Either file in a spec may be
// empty ("pools=nated.txt," serves a NATed list with no dynamic prefixes).
// Each dataset reloads independently.
//
// Endpoints: /v1/check?ip=A.B.C.D (GET) and batch POST /v1/check, /v1/list,
// /v1/prefixes, /v1/stats, /v1/greylist?ip=A.B.C.D (the Section 6
// mitigation: recommended action + greylisting window per address), each
// also at /v1/NAME/...; the unprefixed routes alias the first dataset. Plus
// observability: /metrics (Prometheus text; with -generate it carries the
// study's deterministic counters alongside live request counts and
// per-endpoint latency histograms, all labelled by dataset), /debug/manifest
// (the run manifest JSON, including each dataset's live serving/reload
// status), and — behind -pprof — /debug/pprof/.
//
// The server is hardened for real traffic: read/write/idle timeouts bound
// slow clients, -watch polls the input files and atomically swaps in a
// freshly compiled dataset when they change, and SIGINT/SIGTERM drain
// in-flight requests for up to -shutdown-grace before exiting. Reloads are
// incremental: the watcher diffs the re-parsed files against what is being
// served and applies the delta (reuseapi.ApplyDelta) when it is small,
// paying a full recompile only for wholesale replacements. A reload that
// fails to parse keeps the old dataset serving and reports its error as
// last_reload_error in /debug/manifest until a later reload succeeds.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/blocklist"
	"github.com/reuseblock/reuseblock/internal/core"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/obs"
	"github.com/reuseblock/reuseblock/internal/reuseapi"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// serveOptions carries the parsed flags into server hardening and the
// reloaders.
type serveOptions struct {
	watch         bool
	watchInterval time.Duration

	readTimeout   time.Duration
	writeTimeout  time.Duration
	idleTimeout   time.Duration
	shutdownGrace time.Duration
}

// defaultDataset names the dataset -nated/-dynamic and -generate serve.
const defaultDataset = "default"

// datasetSpec is one served dataset: a name and its input files. The
// -generate study dataset is the one spec with no files; it lives only in
// memory.
type datasetSpec struct {
	name         string
	natedF, dynF string
}

// parseDatasetSpec parses "NAME=NATEDFILE,DYNFILE"; either file (not both)
// may be empty. Name validity is enforced by Registry.Register.
func parseDatasetSpec(v string) (datasetSpec, error) {
	name, files, ok := strings.Cut(v, "=")
	if !ok {
		return datasetSpec{}, fmt.Errorf("-dataset %q: want NAME=NATEDFILE,DYNFILE", v)
	}
	nated, dyn, _ := strings.Cut(files, ",")
	spec := datasetSpec{name: strings.TrimSpace(name),
		natedF: strings.TrimSpace(nated), dynF: strings.TrimSpace(dyn)}
	if spec.natedF == "" && spec.dynF == "" {
		return datasetSpec{}, fmt.Errorf("-dataset %q: at least one input file required", v)
	}
	return spec, nil
}

// run is main with signal handling attached: SIGINT/SIGTERM trigger the
// graceful drain in runCtx.
func run(args []string, stdout, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runCtx(ctx, args, stdout, stderr)
}

// runCtx is run with the lifetime surfaced so tests can drive the server
// in-process and shut it down deterministically: 0 on success (including -h
// and a clean shutdown), 2 on flag errors, 1 on runtime failures.
func runCtx(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("blserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		natedF   = fs.String("nated", "", "NATed address list (plain or 'addr<TAB>users')")
		dynF     = fs.String("dynamic", "", "dynamic prefix list (one CIDR per line)")
		generate = fs.Bool("generate", false, "run a synthetic study instead of loading files")
		seed     = fs.Int64("seed", 1, "seed for -generate")
		scale    = fs.Float64("scale", 0.25, "world scale for -generate")
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address")
		pprofOn  = fs.Bool("pprof", false, "expose /debug/pprof/ profiling endpoints")

		watch         = fs.Bool("watch", false, "poll the -nated/-dynamic files and hot-reload the dataset on change")
		watchInterval = fs.Duration("watch-interval", 2*time.Second, "poll interval for -watch")
		datasetFaults = fs.String("dataset-faults", "", "fault scenario the served dataset was crawled under (provenance label surfaced in /debug/manifest)")
	)
	var datasets []datasetSpec
	fs.Func("dataset", "serve a named dataset NAME=NATEDFILE,DYNFILE (repeatable; the first is the default the unprefixed /v1/* routes alias; either file may be empty)", func(v string) error {
		spec, err := parseDatasetSpec(v)
		if err != nil {
			return err
		}
		datasets = append(datasets, spec)
		return nil
	})
	var (
		readTimeout   = fs.Duration("read-timeout", 10*time.Second, "per-connection read (and header) timeout")
		writeTimeout  = fs.Duration("write-timeout", 30*time.Second, "per-response write timeout")
		idleTimeout   = fs.Duration("idle-timeout", 120*time.Second, "keep-alive idle connection timeout")
		shutdownGrace = fs.Duration("shutdown-grace", 5*time.Second, "drain window for in-flight requests on SIGINT/SIGTERM")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	opts := serveOptions{
		watch: *watch, watchInterval: *watchInterval,
		readTimeout: *readTimeout, writeTimeout: *writeTimeout,
		idleTimeout: *idleTimeout, shutdownGrace: *shutdownGrace,
	}
	if len(datasets) > 0 && (*generate || *natedF != "" || *dynF != "") {
		fmt.Fprintln(stderr, "blserve: -dataset cannot be combined with -generate or -nated/-dynamic")
		return 1
	}
	switch {
	case *generate:
		datasets = []datasetSpec{{name: defaultDataset}}
	case *natedF != "" || *dynF != "":
		datasets = []datasetSpec{{name: defaultDataset, natedF: *natedF, dynF: *dynF}}
	case len(datasets) == 0:
		fmt.Fprintln(stderr, "blserve: provide -nated/-dynamic files or -generate")
		return 1
	}
	if opts.watch && *generate {
		fmt.Fprintln(stderr, "blserve: -watch needs -nated/-dynamic files to poll")
		return 1
	}

	reg := obs.NewRegistry()
	manifest := obs.NewManifest()
	var generated *reuseapi.Dataset
	if *generate {
		var err error
		if generated, manifest, err = generateDataset(*seed, *scale, reg); err != nil {
			fmt.Fprintln(stderr, "blserve:", err)
			return 1
		}
	}
	if *datasetFaults != "" {
		// Crawl provenance travels with the dataset: a list collected under
		// a fault scenario says so in its manifest, even though the files
		// themselves carry no such metadata.
		manifest.FaultScenario = *datasetFaults
	}

	registry := reuseapi.NewRegistry()
	registry.Obs = reg
	registry.EnablePprof = *pprofOn
	rels := make([]*reloader, 0, len(datasets))
	for i, spec := range datasets {
		data, stamps := generated, map[string]fileStamp(nil)
		if spec.natedF != "" || spec.dynF != "" {
			var err error
			if data, stamps, err = loadDataset(spec.natedF, spec.dynF); err != nil {
				fmt.Fprintf(stderr, "blserve: dataset %s: %v\n", spec.name, err)
				return 1
			}
		}
		srv := reuseapi.NewServer(data)
		if err := registry.Register(spec.name, srv); err != nil {
			fmt.Fprintln(stderr, "blserve:", err)
			return 1
		}
		rels = append(rels, newReloader(spec, i == 0, opts.watchInterval, srv, reg, data, stamps))
		fmt.Fprintf(stdout, "dataset %s: %d NATed addresses, %d dynamic prefixes%s\n",
			spec.name, len(data.NATUsers), data.DynamicPrefixes.Len(),
			map[bool]string{true: " (default)"}[i == 0])
	}
	// Serve the manifest with a live metric snapshot and every dataset's
	// lifecycle block, so request counters and reloads since startup are
	// visible too.
	registry.Manifest = func() *obs.Manifest {
		m := *manifest
		m.Metrics = reg.Snapshot(true)
		m.Serving = &obs.ServingStatus{Watching: opts.watch}
		for _, rel := range rels {
			m.Serving.Datasets = append(m.Serving.Datasets, rel.status())
		}
		return &m
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "blserve:", err)
		return 1
	}
	fmt.Fprintf(stdout, "listening on http://%s\n", ln.Addr())
	fmt.Fprintf(stdout, "try: curl 'http://%s/v1/stats' or 'http://%s/metrics'\n", ln.Addr(), ln.Addr())

	watchCtx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	if opts.watch {
		for _, rel := range rels {
			go rel.watch(watchCtx)
		}
	}

	httpSrv := newHTTPServer(registry.Handler(), opts)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "blserve:", err)
			return 1
		}
	case <-ctx.Done():
		drain, cancel := context.WithTimeout(context.Background(), opts.shutdownGrace)
		defer cancel()
		if err := httpSrv.Shutdown(drain); err != nil {
			// Stragglers past the grace window get cut off.
			_ = httpSrv.Close()
		}
		fmt.Fprintln(stdout, "blserve: shutdown complete")
	}
	return 0
}

// newHTTPServer wraps the handler in an http.Server hardened against slow
// clients: a connection that dribbles its headers, stalls mid-body, or sits
// idle past the keep-alive window is closed instead of holding a goroutine
// and file descriptor forever.
func newHTTPServer(h http.Handler, opts serveOptions) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadTimeout:       opts.readTimeout,
		ReadHeaderTimeout: opts.readTimeout,
		WriteTimeout:      opts.writeTimeout,
		IdleTimeout:       opts.idleTimeout,
	}
}

// reloader polls one dataset's input files and swaps a freshly compiled
// snapshot into its server when they change — the hot-reload path behind
// -watch. Reloads are incremental when the change is small: the re-parsed
// files are diffed against what is being served and the delta applied via
// reuseapi.ApplyDelta, so a few churned addresses don't pay a full
// recompile-and-recompress of a 100k-line list.
type reloader struct {
	spec     datasetSpec
	interval time.Duration

	srv          *reuseapi.Server
	reloads      *obs.Counter
	deltaReloads *obs.Counter

	mu       sync.Mutex
	st       obs.DatasetServingStatus
	stamps   map[string]fileStamp
	lastData *reuseapi.Dataset
}

// fileStamp is the change signature of one watched file. The content hash
// catches rewrites that preserve size and mtime (coarse filesystem
// timestamps, tools that restore mtime), which stat alone misses.
type fileStamp struct {
	mtime time.Time
	size  int64
	sum   [sha256.Size]byte
}

func newReloader(spec datasetSpec, isDefault bool, interval time.Duration,
	srv *reuseapi.Server, reg *obs.Registry,
	data *reuseapi.Dataset, stamps map[string]fileStamp) *reloader {
	r := &reloader{
		spec:         spec,
		interval:     interval,
		srv:          srv,
		reloads:      reg.Counter(obs.Name(obs.WallPrefix+"dataset_reloads_total", "dataset", spec.name)),
		deltaReloads: reg.Counter(obs.Name(obs.WallPrefix+"dataset_delta_reloads_total", "dataset", spec.name)),
		stamps:       stamps,
		lastData:     data,
	}
	r.st.Name = spec.name
	r.st.Default = isDefault
	return r
}

// watch polls until ctx is cancelled.
func (r *reloader) watch(ctx context.Context) {
	ticker := time.NewTicker(r.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			r.checkOnce()
		}
	}
}

// checkOnce re-reads the watched files and reloads when their content
// changed. Reads are guarded against concurrent rewrites: every file is
// stat'ed, read, then stat'ed again, and if any stamp moved between the two
// stats the whole attempt is abandoned silently — the writer is mid-rewrite
// and the next tick will see the settled result. A failed parse keeps the
// old dataset serving and surfaces the error in the manifest.
func (r *reloader) checkOnce() {
	data, stamps, err := loadDataset(r.spec.natedF, r.spec.dynF)
	if errors.Is(err, errInputsMoved) {
		return
	}
	if err != nil {
		r.setError(err)
		return
	}
	r.mu.Lock()
	changed := len(stamps) != len(r.stamps)
	for f, s := range stamps {
		if r.stamps[f] != s {
			changed = true
		}
	}
	last := r.lastData
	r.mu.Unlock()
	if !changed {
		return
	}

	// Diff against what is serving and pick the cheapest sound path: a
	// byte-identical rewrite keeps the compiled snapshot (and its ETags), a
	// small churn goes through the incremental delta compile, and wholesale
	// replacement pays the full recompile.
	delta := reuseapi.DiffDatasets(last, data)
	var appliedDelta bool
	switch {
	case delta.Empty():
		// Same content, new stamps: nothing to recompile, but it still
		// counts as a (trivially fast) reload so watchers of the reload
		// counter see the swap attempt land.
		data = last
	case 4*delta.Ops() <= len(last.NATUsers)+last.DynamicPrefixes.Len():
		r.srv.ApplyDelta(delta)
		appliedDelta = true
	default:
		r.srv.Update(data)
	}
	r.reloads.Inc()
	if appliedDelta {
		r.deltaReloads.Inc()
	}
	r.mu.Lock()
	r.stamps = stamps
	r.lastData = data
	r.st.Reloads++
	if appliedDelta {
		r.st.DeltaReloads++
	}
	r.st.LastReload = time.Now().UTC()
	r.st.LastError = ""
	r.mu.Unlock()
}

func (r *reloader) setError(err error) {
	r.mu.Lock()
	r.st.LastError = err.Error()
	r.mu.Unlock()
}

// status returns this dataset's lifecycle block for the manifest, sized from
// the live snapshot.
func (r *reloader) status() obs.DatasetServingStatus {
	r.mu.Lock()
	st := r.st
	r.mu.Unlock()
	snap := r.srv.Snapshot()
	st.Generated = snap.Generated()
	st.NATedAddresses = snap.NATedAddresses()
	st.DynamicPrefixes = snap.DynamicPrefixes()
	return st
}

// generateDataset runs a synthetic study and returns its reuse list with the
// study's manifest; the study's deterministic counters land in reg.
func generateDataset(seed int64, scale float64, reg *obs.Registry) (*reuseapi.Dataset, *obs.Manifest, error) {
	wp := blgen.DefaultParams(seed)
	wp.Scale = scale
	study := core.NewStudy(core.Config{Seed: seed, World: &wp, SkipICMP: true, Obs: reg})
	if _, err := study.Run(); err != nil {
		return nil, nil, err
	}
	data := &reuseapi.Dataset{
		NATUsers:        map[iputil.Addr]int{},
		DynamicPrefixes: study.RIPE.DynamicPrefixes,
		Generated:       time.Now().UTC(),
	}
	for _, o := range study.NATed {
		data.NATUsers[o.Addr] = o.Users
	}
	return data, study.Manifest(), nil
}

// errInputsMoved marks a load attempt that raced a concurrent rewrite of the
// input files: a file's stamp moved between the pre-read and post-read stats.
// The caller retries on the next tick rather than parsing a torn read.
var errInputsMoved = errors.New("input files changed during read")

// loadDataset reads the on-disk lists into a dataset — the path shared by
// startup and every -watch reload — and returns each file's change
// signature (mtime, size, content hash) taken at a moment the content is
// known to match: every file is stat'ed before and after its read, and a
// moved stamp fails the whole load with errInputsMoved.
func loadDataset(natedF, dynF string) (*reuseapi.Dataset, map[string]fileStamp, error) {
	var paths []string
	if natedF != "" {
		paths = append(paths, natedF)
	}
	if dynF != "" {
		paths = append(paths, dynF)
	}
	pre := make(map[string]os.FileInfo, len(paths))
	content := make(map[string][]byte, len(paths))
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return nil, nil, err
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, nil, err
		}
		pre[p], content[p] = fi, b
	}
	stamps := make(map[string]fileStamp, len(paths))
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return nil, nil, err
		}
		if !fi.ModTime().Equal(pre[p].ModTime()) || fi.Size() != pre[p].Size() {
			return nil, nil, fmt.Errorf("%w: %s", errInputsMoved, p)
		}
		stamps[p] = fileStamp{
			mtime: fi.ModTime(), size: fi.Size(), sum: sha256.Sum256(content[p]),
		}
	}
	data := &reuseapi.Dataset{
		NATUsers:        map[iputil.Addr]int{},
		DynamicPrefixes: iputil.NewPrefixSet(),
		Generated:       time.Now().UTC(),
	}
	var err error
	if natedF != "" {
		data.NATUsers, err = blocklist.ParseNATedList(bytes.NewReader(content[natedF]))
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", natedF, err)
		}
	}
	if dynF != "" {
		data.DynamicPrefixes, err = blocklist.ParsePrefixList(bytes.NewReader(content[dynF]))
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", dynF, err)
		}
	}
	return data, stamps, nil
}
