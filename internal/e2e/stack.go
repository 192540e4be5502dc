package e2e

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/blocklist"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/obs"
	"github.com/reuseblock/reuseblock/internal/reuseapi"
	"github.com/reuseblock/reuseblock/internal/testkit"
)

// StackConfig describes one full-pipeline boot: the seeded world every
// process regenerates, which fault scenario the crawl runs under, and
// whether blserve watches its inputs.
type StackConfig struct {
	Seed          int64
	Scale         float64
	CrawlDuration time.Duration
	// Faults names an internal/faults scenario for the blcrawl process (""
	// for fault-free); it also stamps the served dataset's manifest
	// provenance.
	Faults string
	// Watch starts blserve with -watch (polling every watchInterval) so
	// scenarios can drive hot reloads.
	Watch bool
	// Datasets, when non-empty, boots blserve in multi-dataset mode with one
	// repeated -dataset flag per spec, each slicing the pipeline's two list
	// files. The first entry is the default dataset the unprefixed /v1/*
	// routes alias.
	Datasets []DatasetSpec
}

const (
	// watchInterval is blserve's -watch-interval under Watch.
	watchInterval = 25 * time.Millisecond
	// bootTimeout bounds each pipeline stage (crawl, detect, serve-ready).
	bootTimeout = 2 * time.Minute
)

// DatasetSpec names one blserve dataset and selects which of the pipeline's
// outputs it serves: the crawl's NATed list, the detected dynamic prefixes,
// or both.
type DatasetSpec struct {
	Name    string
	Nated   bool
	Dynamic bool
}

func (c StackConfig) withDefaults() StackConfig {
	if c.Scale == 0 {
		c.Scale = 0.05
	}
	if c.CrawlDuration == 0 {
		c.CrawlDuration = 12 * time.Hour
	}
	return c
}

// Stack is one booted scenario: the blcrawl crawl has run to completion, the
// dataset steps have produced list files, and blserve is live on loopback.
// The in-process World is the byte-identical ground truth every process
// regenerated from the seed, so oracle checks need no side channel.
type Stack struct {
	Cfg    StackConfig
	World  *blgen.World
	Oracle testkit.Oracle

	// Dir is the scenario workspace: the list files, the generated RIPE
	// logs, and saved process logs on failure.
	Dir          string
	NatedPath    string
	PrefixesPath string

	// Short mirrors testing.Short for scenarios that scale their load.
	Short bool

	BaseURL string
	Serve   *Proc

	// finished holds run-to-completion processes (blcrawl, blgen,
	// bldetect) for log salvage.
	finished []*Proc

	client *http.Client
}

// BootStack runs the whole pipeline as processes. On error the returned
// stack is still non-nil so callers can salvage logs; Close it either way.
func BootStack(cfg StackConfig) (*Stack, error) {
	cfg = cfg.withDefaults()
	st := &Stack{Cfg: cfg, client: &http.Client{Timeout: 30 * time.Second}}

	bins, err := Binaries()
	if err != nil {
		return st, err
	}
	st.Dir, err = os.MkdirTemp("", "reuseblock-e2e-")
	if err != nil {
		return st, err
	}

	// Ground truth: the same deterministic world the blcrawl process
	// regenerates from (seed, scale).
	wp := blgen.DefaultParams(cfg.Seed)
	wp.Scale = cfg.Scale
	st.World = blgen.Generate(wp)
	st.Oracle = testkit.Oracle{World: st.World}

	// Stage 1 — dataset sources, concurrently: one whole blcrawl crawl,
	// whose -out file is the served NATed list, and the world generator (for
	// the RIPE connection logs bldetect consumes).
	worldDir := filepath.Join(st.Dir, "world")
	gen, err := StartProc("blgen", bins["blgen"],
		"-out", worldDir, "-seed", strconv.FormatInt(cfg.Seed, 10),
		"-scale", fmt.Sprintf("%g", cfg.Scale), "-days", "1")
	if err != nil {
		return st, err
	}
	st.finished = append(st.finished, gen)

	st.NatedPath = filepath.Join(st.Dir, "nated.txt")
	args := []string{
		"-seed", strconv.FormatInt(cfg.Seed, 10),
		"-scale", fmt.Sprintf("%g", cfg.Scale),
		"-duration", cfg.CrawlDuration.String(),
		"-out", st.NatedPath,
	}
	if cfg.Faults != "" {
		args = append(args, "-faults", cfg.Faults)
	}
	crawl, err := StartProc("blcrawl", bins["blcrawl"], args...)
	if err != nil {
		return st, err
	}
	st.finished = append(st.finished, crawl)
	if err := crawl.WaitExit(bootTimeout); err != nil {
		return st, fmt.Errorf("blcrawl: %w\nstderr: %s", err, crawl.Stderr())
	}
	if err := gen.WaitExit(bootTimeout); err != nil {
		return st, fmt.Errorf("blgen: %w\nstderr: %s", err, gen.Stderr())
	}

	// Stage 2 — run the dynamic-address detector over the RIPE logs.
	st.PrefixesPath = filepath.Join(st.Dir, "prefixes.txt")
	det, err := StartProc("bldetect", bins["bldetect"],
		"-logs", filepath.Join(worldDir, "ripe-connection-logs.csv"),
		"-prefixes-out", st.PrefixesPath)
	if err != nil {
		return st, err
	}
	st.finished = append(st.finished, det)
	if err := det.WaitExit(bootTimeout); err != nil {
		return st, fmt.Errorf("bldetect: %w\nstderr: %s", err, det.Stderr())
	}

	// Stage 3 — serve the datasets on an ephemeral loopback port.
	serveArgs := []string{"-addr", "127.0.0.1:0"}
	if len(cfg.Datasets) > 0 {
		for _, ds := range cfg.Datasets {
			nated, dyn := "", ""
			if ds.Nated {
				nated = st.NatedPath
			}
			if ds.Dynamic {
				dyn = st.PrefixesPath
			}
			serveArgs = append(serveArgs, "-dataset", fmt.Sprintf("%s=%s,%s", ds.Name, nated, dyn))
		}
	} else {
		serveArgs = append(serveArgs, "-nated", st.NatedPath, "-dynamic", st.PrefixesPath)
	}
	if cfg.Watch {
		serveArgs = append(serveArgs, "-watch", "-watch-interval", watchInterval.String())
	}
	if cfg.Faults != "" {
		serveArgs = append(serveArgs, "-dataset-faults", cfg.Faults)
	}
	st.Serve, err = StartProc("blserve", bins["blserve"], serveArgs...)
	if err != nil {
		return st, err
	}
	err = WaitFor(bootTimeout, 10*time.Millisecond, func() (bool, error) {
		if st.Serve.Exited() {
			return false, fmt.Errorf("blserve exited during startup\nstderr: %s", st.Serve.Stderr())
		}
		base, ok := FindBaseURL(st.Serve.Stdout())
		st.BaseURL = base
		return ok, nil
	})
	if err != nil {
		return st, err
	}
	if err := WaitHTTPOK(st.BaseURL+"/v1/stats", bootTimeout); err != nil {
		return st, fmt.Errorf("blserve never became ready: %w", err)
	}
	return st, nil
}

// Close drains the server and removes the workspace.
func (s *Stack) Close() error {
	var err error
	if s.Serve != nil {
		err = s.Serve.Stop(10 * time.Second)
	}
	if s.Dir != "" {
		os.RemoveAll(s.Dir)
	}
	return err
}

// SaveLogs writes every process's captured output plus the dataset inputs
// under dir for post-mortem (CI uploads this directory on failure).
func (s *Stack) SaveLogs(dir string) error {
	procs := append([]*Proc{}, s.finished...)
	if s.Serve != nil {
		procs = append(procs, s.Serve)
	}
	for _, p := range procs {
		if err := p.SaveLogs(dir); err != nil {
			return err
		}
	}
	for _, f := range []string{s.NatedPath, s.PrefixesPath} {
		if f == "" {
			continue
		}
		if data, err := os.ReadFile(f); err == nil {
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), data, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeNATedFile writes a NATed list atomically (temp file + rename), so a
// watching server never observes a half-written dataset unless a scenario
// corrupts one on purpose.
func writeNATedFile(path string, users map[iputil.Addr]int, header string) error {
	var buf bytes.Buffer
	if err := blocklist.WriteNATedList(&buf, users, header); err != nil {
		return err
	}
	return writeFileAtomic(path, buf.Bytes())
}

func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// RewriteNATedInput atomically replaces the served NATed list — the hot-
// reload scenarios' knob. The content is deterministic for a given map, so
// writing the same map twice produces byte-identical files.
func (s *Stack) RewriteNATedInput(users map[iputil.Addr]int, header string) error {
	return writeNATedFile(s.NatedPath, users, header)
}

// TouchNATedInput rewrites the NATed list with its current bytes — a
// content-identical change that still trips the watcher's mtime stamp, for
// asserting that identical reloads serve identical (same-ETag) datasets.
func (s *Stack) TouchNATedInput() error {
	data, err := os.ReadFile(s.NatedPath)
	if err != nil {
		return err
	}
	return writeFileAtomic(s.NatedPath, data)
}

// CorruptNATedInput atomically replaces the NATed list with unparseable
// content, for failed-reload scenarios.
func (s *Stack) CorruptNATedInput() error {
	return writeFileAtomic(s.NatedPath, []byte("this is not an address list\n"))
}

// ServedNATedInput parses the NATed list currently on disk.
func (s *Stack) ServedNATedInput() (map[iputil.Addr]int, error) {
	f, err := os.Open(s.NatedPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return blocklist.ParseNATedList(f)
}

// get performs one GET against the live server.
func (s *Stack) get(path string) (int, http.Header, []byte, error) {
	resp, err := s.client.Get(s.BaseURL + path)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}

// GetJSON decodes a 200 JSON answer into v.
func (s *Stack) GetJSON(path string, v any) error {
	code, _, body, err := s.get(path)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("e2e: GET %s = %d: %s", path, code, body)
	}
	return json.Unmarshal(body, v)
}

// Stats fetches /v1/stats.
func (s *Stack) Stats() (reuseapi.Stats, error) {
	var st reuseapi.Stats
	err := s.GetJSON("/v1/stats", &st)
	return st, err
}

// DatasetStats fetches /v1/{name}/stats — the named route of a
// multi-dataset server.
func (s *Stack) DatasetStats(name string) (reuseapi.Stats, error) {
	var st reuseapi.Stats
	err := s.GetJSON("/v1/"+name+"/stats", &st)
	return st, err
}

// DatasetVerdict fetches one GET /v1/{name}/check answer.
func (s *Stack) DatasetVerdict(name, ip string) (reuseapi.Verdict, error) {
	var v reuseapi.Verdict
	err := s.GetJSON("/v1/"+name+"/check?ip="+ip, &v)
	return v, err
}

// Greylist fetches one GET /v1/greylist answer; dataset "" targets the
// unprefixed route, a name the prefixed one.
func (s *Stack) Greylist(dataset, ip string) (reuseapi.GreylistAnswer, error) {
	var ans reuseapi.GreylistAnswer
	path := "/v1/greylist?ip=" + ip
	if dataset != "" {
		path = "/v1/" + dataset + "/greylist?ip=" + ip
	}
	err := s.GetJSON(path, &ans)
	return ans, err
}

// Header returns one response header of a 200 GET — the scenarios' probe
// for the caching contract (Vary, ETag interplay).
func (s *Stack) Header(path, name string) (string, error) {
	code, h, _, err := s.get(path)
	if err != nil {
		return "", err
	}
	if code != http.StatusOK {
		return "", fmt.Errorf("e2e: GET %s = %d", path, code)
	}
	return h.Get(name), nil
}

// Manifest fetches /debug/manifest.
func (s *Stack) Manifest() (*obs.Manifest, error) {
	var m obs.Manifest
	if err := s.GetJSON("/debug/manifest", &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// Metrics fetches the Prometheus text form of /metrics.
func (s *Stack) Metrics() (string, error) {
	code, _, body, err := s.get("/metrics")
	if err != nil {
		return "", err
	}
	if code != http.StatusOK {
		return "", fmt.Errorf("e2e: GET /metrics = %d", code)
	}
	return string(body), nil
}

// MetricValue extracts an exact-name sample from Prometheus text output.
func MetricValue(metrics, name string) (float64, bool) {
	for _, line := range strings.Split(metrics, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || !strings.HasPrefix(rest, " ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}

// Verdict fetches one GET /v1/check answer.
func (s *Stack) Verdict(ip string) (reuseapi.Verdict, error) {
	var v reuseapi.Verdict
	err := s.GetJSON("/v1/check?ip="+ip, &v)
	return v, err
}

// BatchVerdicts fetches POST /v1/check answers for ips, in order.
func (s *Stack) BatchVerdicts(ips []string) ([]reuseapi.Verdict, error) {
	body, err := json.Marshal(ips)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Post(s.BaseURL+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("e2e: batch check = %d: %s", resp.StatusCode, msg)
	}
	var vs []reuseapi.Verdict
	err = json.NewDecoder(resp.Body).Decode(&vs)
	return vs, err
}

// ETag returns the ETag header of path.
func (s *Stack) ETag(path string) (string, error) {
	code, h, _, err := s.get(path)
	if err != nil {
		return "", err
	}
	if code != http.StatusOK {
		return "", fmt.Errorf("e2e: GET %s = %d", path, code)
	}
	etag := h.Get("ETag")
	if etag == "" {
		return "", fmt.Errorf("e2e: GET %s carries no ETag", path)
	}
	return etag, nil
}

// ServedNATed parses the /v1/list body into its address strings.
func (s *Stack) ServedNATed() ([]string, error) {
	code, _, body, err := s.get("/v1/list")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("e2e: GET /v1/list = %d", code)
	}
	return parseAddrLines(body), nil
}

// ServedPrefixes parses the /v1/prefixes body into its CIDR strings.
func (s *Stack) ServedPrefixes() ([]string, error) {
	code, _, body, err := s.get("/v1/prefixes")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("e2e: GET /v1/prefixes = %d", code)
	}
	return parseAddrLines(body), nil
}

func parseAddrLines(body []byte) []string {
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, strings.Fields(line)[0])
	}
	return out
}

// CheckServedAgainstOracle pulls verdicts through the live API — every
// served NATed address, a representative inside every served dynamic prefix,
// and probes that must come back clean — and verifies them against the
// world's ground truth. It then replays the same sample through the batch
// endpoint and requires identical answers, so both check paths are pinned to
// the oracle in one sweep.
func (s *Stack) CheckServedAgainstOracle() error {
	ips, err := s.ServedNATed()
	if err != nil {
		return err
	}
	prefixes, err := s.ServedPrefixes()
	if err != nil {
		return err
	}
	for _, p := range prefixes {
		pfx, err := iputil.ParsePrefix(p)
		if err != nil {
			return fmt.Errorf("e2e: served prefix %q: %w", p, err)
		}
		ips = append(ips, pfx.Nth(1).String())
	}
	// Probes outside the world's blocklisted space must come back clean.
	ips = append(ips, "203.0.113.99", "192.0.2.1")

	verdicts := make([]reuseapi.Verdict, 0, len(ips))
	for _, ip := range ips {
		v, err := s.Verdict(ip)
		if err != nil {
			return fmt.Errorf("e2e: check %s: %w", ip, err)
		}
		if v.IP != ip {
			return fmt.Errorf("e2e: check %s answered for %s", ip, v.IP)
		}
		verdicts = append(verdicts, v)
	}
	if err := s.Oracle.CheckServedVerdicts(verdicts); err != nil {
		return err
	}

	batch, err := s.BatchVerdicts(ips)
	if err != nil {
		return err
	}
	if len(batch) != len(verdicts) {
		return fmt.Errorf("e2e: batch returned %d verdicts for %d addresses", len(batch), len(verdicts))
	}
	for i := range batch {
		if batch[i] != verdicts[i] {
			return fmt.Errorf("e2e: batch verdict %+v disagrees with single check %+v", batch[i], verdicts[i])
		}
	}
	return nil
}
