//go:build e2e

package e2e

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/core"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/obs"
)

// defaultDataset returns the default dataset's block of m's serving status,
// or nil when m carries none.
func defaultDataset(m *obs.Manifest) *obs.DatasetServingStatus {
	if m.Serving == nil || len(m.Serving.Datasets) == 0 {
		return nil
	}
	return &m.Serving.Datasets[0]
}

func TestMain(m *testing.M) {
	code := m.Run()
	CleanupBinaries()
	os.Exit(code)
}

// TestE2EScenarios is the scenario suite: every entry boots the full
// pipeline as processes — one whole blcrawl crawl, blgen/bldetect dataset
// steps, blserve — and asserts on the served API, cross-checked against the
// regenerated ground-truth world.
func TestE2EScenarios(t *testing.T) {
	var su Suite

	su.Add(Scenario{
		Name:        "baseline",
		CrawlHours:  12,
		Description: "fault-free crawl; served verdicts must match ground truth and the served list the in-process crawl",
		Seed:        42,
		Smoke:       true,
		Run:         runBaseline,
	})
	su.Add(Scenario{
		Name:        "bursty-loss",
		CrawlHours:  12,
		Description: "crawl under bursty datagram loss; precision must survive end to end",
		Seed:        43,
		Faults:      "bursty",
		Run:         checkHealthyStack("bursty"),
	})
	su.Add(Scenario{
		Name:        "blackout",
		CrawlHours:  12,
		Description: "crawl through a total connectivity blackout window",
		// Seed chosen so the tiny test-scale world still yields a dynamic
		// pool for bldetect (not every seed does at scale 0.05).
		Seed:   49,
		Faults: "blackout",
		Run:    checkHealthyStack("blackout"),
	})
	su.Add(Scenario{
		Name:        "restart-storm",
		CrawlHours:  12,
		Description: "crawl through mass peer restarts; port churn must not poison the list",
		Seed:        45,
		Faults:      "storm",
		Run:         checkHealthyStack("storm"),
	})
	su.Add(Scenario{
		Name:        "watch-reload",
		Description: "identical hot reloads keep the ETag; a grown dataset swaps in live",
		Seed:        46,
		Watch:       true,
		Smoke:       true,
		Run:         runWatchReload,
	})
	su.Add(Scenario{
		Name:        "watch-bad-reload",
		Description: "a corrupt input mid-run must not dent the served snapshot",
		Seed:        47,
		Watch:       true,
		Smoke:       true,
		Run:         runWatchBadReload,
	})
	su.Add(Scenario{
		Name:        "multi-dataset",
		CrawlHours:  12,
		Description: "three named datasets behind one server; routing, stats, manifest and metrics stay per-dataset",
		// Seed shared with baseline: proven to yield both NATed addresses
		// and a dynamic pool at the test scale (not every seed does).
		Seed:  42,
		Smoke: true,
		Datasets: []DatasetSpec{
			{Name: "all", Nated: true, Dynamic: true},
			{Name: "pools", Nated: true},
			{Name: "dial", Dynamic: true},
		},
		Run: runMultiDataset,
	})
	su.Add(Scenario{
		Name:        "greylist",
		CrawlHours:  12,
		Description: "/v1/greylist tempfails reused addresses with a retry window and blocks clean ones",
		// Seed shared with blackout: a world with reachable users and a
		// dynamic pool at the test scale.
		Seed:  49,
		Smoke: true,
		Run:   runGreylist,
	})
	su.Add(Scenario{
		Name:        "check-load",
		CrawlHours:  12,
		Description: "concurrent load on /v1/check; zero errors",
		Seed:        48,
		Run:         runCheckLoad,
	})
	su.Run(t)
}

// checkHealthyStack is the shared assertion body for crawl scenarios: the
// served dataset is non-trivial, every served verdict survives the oracle,
// and /metrics plus /debug/manifest reflect the scenario's fault catalogue.
func checkHealthyStack(faults string) func(*Stack) error {
	return func(s *Stack) error {
		stats, err := s.Stats()
		if err != nil {
			return err
		}
		if stats.Empty {
			return fmt.Errorf("served dataset is empty")
		}
		if stats.DynamicPrefixes == 0 {
			return fmt.Errorf("no dynamic prefixes served (bldetect produced nothing)")
		}
		if faults == "" && stats.NATedAddresses == 0 {
			return fmt.Errorf("fault-free crawl detected no NATed addresses")
		}
		if err := s.CheckServedAgainstOracle(); err != nil {
			return err
		}
		m, err := s.Manifest()
		if err != nil {
			return err
		}
		if m.FaultScenario != faults {
			return fmt.Errorf("manifest fault_scenario = %q, want %q", m.FaultScenario, faults)
		}
		d := defaultDataset(m)
		if d == nil {
			return fmt.Errorf("manifest carries no serving status")
		}
		if d.Reloads != 0 {
			return fmt.Errorf("fresh server reports %d reloads", d.Reloads)
		}
		metrics, err := s.Metrics()
		if err != nil {
			return err
		}
		if v, ok := MetricValue(metrics, `wall_dataset_reloads_total{dataset="default"}`); !ok || v != 0 {
			return fmt.Errorf("wall_dataset_reloads_total = %v (present=%v), want 0", v, ok)
		}
		if !strings.Contains(metrics, "wall_api_requests_total") {
			return fmt.Errorf("metrics do not count api requests:\n%s", metrics)
		}
		return nil
	}
}

// runBaseline checks the healthy-stack contract, then pins the process
// pipeline to the study's crawl stage: the served NATed list, and the users
// in blcrawl's -out file, must equal Study.NATed for the same world, seed
// and duration.
func runBaseline(s *Stack) error {
	if err := checkHealthyStack("")(s); err != nil {
		return err
	}
	st := core.NewStudyFromWorld(s.World, core.Config{Seed: s.Cfg.Seed, CrawlDuration: s.Cfg.CrawlDuration})
	if err := st.Crawl(nil); err != nil {
		return err
	}
	want := make(map[string]int, len(st.NATed))
	for _, o := range st.NATed {
		want[o.Addr.String()] = o.Users
	}
	served, err := s.ServedNATed()
	if err != nil {
		return err
	}
	for _, ip := range served {
		if _, ok := want[ip]; !ok {
			return fmt.Errorf("served NATed %s, which the study's crawl did not detect", ip)
		}
	}
	if len(served) != len(want) {
		return fmt.Errorf("served %d NATed addresses, the study's crawl detected %d", len(served), len(want))
	}
	users, err := s.ServedNATedInput()
	if err != nil {
		return err
	}
	for a, n := range users {
		if want[a.String()] != n {
			return fmt.Errorf("blcrawl -out gives %s %d users, the study's crawl %d", a, n, want[a.String()])
		}
	}
	if len(users) != len(want) {
		return fmt.Errorf("blcrawl -out holds %d addresses, the study's crawl detected %d", len(users), len(want))
	}
	return nil
}

// waitReloads polls the manifest until the server has seen want reloads.
func waitReloads(s *Stack, want int64) error {
	return WaitFor(10*time.Second, watchInterval, func() (bool, error) {
		m, err := s.Manifest()
		if err != nil {
			return false, err
		}
		d := defaultDataset(m)
		return d != nil && d.Reloads >= want, nil
	})
}

func runWatchReload(s *Stack) error {
	m, err := s.Manifest()
	if err != nil {
		return err
	}
	if m.Serving == nil || !m.Serving.Watching {
		return fmt.Errorf("blserve -watch does not report watching")
	}
	etag, err := s.ETag("/v1/list")
	if err != nil {
		return err
	}
	// The precomputed endpoints negotiate encoding, so every answer must
	// carry Vary: Accept-Encoding or a shared cache will serve the wrong
	// representation.
	if vary, err := s.Header("/v1/list", "Vary"); err != nil {
		return err
	} else if vary != "Accept-Encoding" {
		return fmt.Errorf("/v1/list Vary = %q, want Accept-Encoding", vary)
	}

	// A byte-identical rewrite trips the watcher but must compile to the
	// same dataset: the ETag pins that across as many reloads as we force.
	for i := int64(1); i <= 2; i++ {
		if err := s.TouchNATedInput(); err != nil {
			return err
		}
		if err := waitReloads(s, i); err != nil {
			return fmt.Errorf("reload %d never landed: %w", i, err)
		}
		again, err := s.ETag("/v1/list")
		if err != nil {
			return err
		}
		if again != etag {
			return fmt.Errorf("identical reload %d changed the ETag %s -> %s", i, etag, again)
		}
	}

	// Grow the dataset with a true gateway the crawl may have missed; the
	// swap must be visible in verdicts, stats and a fresh ETag.
	users, err := s.ServedNATedInput()
	if err != nil {
		return err
	}
	added := iputil.Addr(0)
	for addr, truth := range s.World.NATByIP {
		if _, served := users[addr]; !served && truth.BTUsers >= 2 {
			added = addr
			break
		}
	}
	if added == 0 {
		return fmt.Errorf("no unserved NAT gateway available to add")
	}
	users[added] = 2
	if err := s.RewriteNATedInput(users, "grown by watch-reload scenario"); err != nil {
		return err
	}
	if err := waitReloads(s, 3); err != nil {
		return fmt.Errorf("grow reload never landed: %w", err)
	}
	v, err := s.Verdict(added.String())
	if err != nil {
		return err
	}
	if !v.NATed || v.Users != 2 {
		return fmt.Errorf("added gateway %s served as %+v, want nated users=2", added, v)
	}
	stats, err := s.Stats()
	if err != nil {
		return err
	}
	if stats.NATedAddresses != len(users) {
		return fmt.Errorf("stats report %d NATed addresses after grow, want %d",
			stats.NATedAddresses, len(users))
	}
	grown, err := s.ETag("/v1/list")
	if err != nil {
		return err
	}
	if grown == etag {
		return fmt.Errorf("dataset grew but /v1/list ETag did not change")
	}
	if vary, err := s.Header("/v1/list", "Vary"); err != nil {
		return err
	} else if vary != "Accept-Encoding" {
		return fmt.Errorf("reload dropped Vary: got %q, want Accept-Encoding", vary)
	}
	return s.CheckServedAgainstOracle()
}

// runWatchBadReload corrupts the NATed input mid-run: the old snapshot must
// keep serving, the manifest must record the failed reload, and the reload
// counter must not advance. Restoring the file heals the server.
func runWatchBadReload(s *Stack) error {
	etag, err := s.ETag("/v1/list")
	if err != nil {
		return err
	}
	statsBefore, err := s.Stats()
	if err != nil {
		return err
	}
	good, err := s.ServedNATedInput()
	if err != nil {
		return err
	}

	if err := s.CorruptNATedInput(); err != nil {
		return err
	}
	err = WaitFor(10*time.Second, watchInterval, func() (bool, error) {
		m, merr := s.Manifest()
		if merr != nil {
			return false, merr
		}
		d := defaultDataset(m)
		return d != nil && d.LastError != "", nil
	})
	if err != nil {
		return fmt.Errorf("manifest never recorded the failed reload: %w", err)
	}

	m, err := s.Manifest()
	if err != nil {
		return err
	}
	if d := defaultDataset(m); d.Reloads != 0 {
		return fmt.Errorf("failed reload advanced the reload count to %d", d.Reloads)
	}
	metrics, err := s.Metrics()
	if err != nil {
		return err
	}
	if v, ok := MetricValue(metrics, `wall_dataset_reloads_total{dataset="default"}`); !ok || v != 0 {
		return fmt.Errorf("wall_dataset_reloads_total = %v after failed reload, want 0", v)
	}
	after, err := s.ETag("/v1/list")
	if err != nil {
		return err
	}
	if after != etag {
		return fmt.Errorf("failed reload changed the served list ETag %s -> %s", etag, after)
	}
	statsAfter, err := s.Stats()
	if err != nil {
		return err
	}
	if statsAfter != statsBefore {
		return fmt.Errorf("failed reload changed stats %+v -> %+v", statsBefore, statsAfter)
	}

	// Heal: restoring a parseable file swaps a fresh dataset in and clears
	// the recorded error.
	if err := s.RewriteNATedInput(good, "restored by watch-bad-reload scenario"); err != nil {
		return err
	}
	if err := waitReloads(s, 1); err != nil {
		return fmt.Errorf("healing reload never landed: %w", err)
	}
	m, err = s.Manifest()
	if err != nil {
		return err
	}
	if d := defaultDataset(m); d.LastError != "" {
		return fmt.Errorf("healed server still reports reload error %q", d.LastError)
	}
	return s.CheckServedAgainstOracle()
}

// runMultiDataset boots blserve with three named slices of the pipeline
// outputs and asserts the registry keeps them apart: per-dataset routes,
// stats, manifest blocks and metric labels, with the unprefixed routes
// aliasing the default, and a mixed load run touching every route cleanly.
func runMultiDataset(s *Stack) error {
	all, err := s.DatasetStats("all")
	if err != nil {
		return err
	}
	if all.Empty || all.NATedAddresses == 0 || all.DynamicPrefixes == 0 {
		return fmt.Errorf("default dataset is degenerate: %+v", all)
	}
	pools, err := s.DatasetStats("pools")
	if err != nil {
		return err
	}
	if pools.NATedAddresses != all.NATedAddresses || pools.DynamicPrefixes != 0 {
		return fmt.Errorf("pools stats %+v, want %d NATed and no prefixes", pools, all.NATedAddresses)
	}
	dial, err := s.DatasetStats("dial")
	if err != nil {
		return err
	}
	if dial.NATedAddresses != 0 || dial.DynamicPrefixes != all.DynamicPrefixes {
		return fmt.Errorf("dial stats %+v, want %d prefixes and no NATed", dial, all.DynamicPrefixes)
	}

	// The unprefixed routes alias the first -dataset flag ("all").
	unprefixed, err := s.Stats()
	if err != nil {
		return err
	}
	if unprefixed != all {
		return fmt.Errorf("unprefixed stats %+v != default dataset stats %+v", unprefixed, all)
	}

	// The same address answers per-dataset: NATed in "pools", clean in
	// "dial" (which only serves the dynamic prefixes).
	served, err := s.ServedNATed()
	if err != nil {
		return err
	}
	if len(served) == 0 {
		return fmt.Errorf("no served NATed addresses to probe")
	}
	ip := served[0]
	pv, err := s.DatasetVerdict("pools", ip)
	if err != nil {
		return err
	}
	if !pv.NATed {
		return fmt.Errorf("pools verdict for %s = %+v, want nated", ip, pv)
	}
	dv, err := s.DatasetVerdict("dial", ip)
	if err != nil {
		return err
	}
	if dv.NATed {
		return fmt.Errorf("dial verdict for %s = %+v, want not nated", ip, dv)
	}

	// Unknown names 404 instead of falling through to the default dataset.
	if code, _, _, err := s.get("/v1/nosuch/stats"); err != nil {
		return err
	} else if code != 404 {
		return fmt.Errorf("GET /v1/nosuch/stats = %d, want 404", code)
	}

	m, err := s.Manifest()
	if err != nil {
		return err
	}
	if m.Serving == nil || len(m.Serving.Datasets) != 3 {
		return fmt.Errorf("manifest carries no per-dataset blocks: %+v", m.Serving)
	}
	if d := m.Serving.Datasets[0]; d.Name != "all" || !d.Default {
		return fmt.Errorf("manifest dataset[0] = %+v, want default %q", d, "all")
	}
	metrics, err := s.Metrics()
	if err != nil {
		return err
	}
	for _, label := range []string{`dataset="all"`, `dataset="pools"`, `dataset="dial"`} {
		if !strings.Contains(metrics, label) {
			return fmt.Errorf("metrics carry no %s samples", label)
		}
	}

	// A short mixed load across every route (including the unprefixed
	// alias) must complete error-free.
	lg := LoadGen{
		BaseURL:     s.BaseURL,
		Targets:     append(served, "192.0.2.1"),
		Datasets:    []string{"", "all", "pools", "dial"},
		Concurrency: 4,
		Duration:    time.Second,
	}
	res, err := lg.Run()
	if err != nil {
		return err
	}
	if res.Errors > 0 || res.Requests == 0 {
		return fmt.Errorf("multi-dataset load run: %d errors over %d requests", res.Errors, res.Requests)
	}
	return s.CheckServedAgainstOracle()
}

// runGreylist asserts the mitigation endpoint end to end: reused addresses
// (NATed or inside a dynamic pool) come back tempfail with a retry window
// and an expiry, clean addresses come back block with neither, and the
// embedded verdict agrees with /v1/check.
func runGreylist(s *Stack) error {
	served, err := s.ServedNATed()
	if err != nil {
		return err
	}
	prefixes, err := s.ServedPrefixes()
	if err != nil {
		return err
	}
	if len(served) == 0 || len(prefixes) == 0 {
		return fmt.Errorf("dataset too small to probe greylist (%d NATed, %d prefixes)",
			len(served), len(prefixes))
	}
	pfx, err := iputil.ParsePrefix(prefixes[0])
	if err != nil {
		return err
	}

	checkReused := func(ip string) error {
		ans, err := s.Greylist("", ip)
		if err != nil {
			return err
		}
		if ans.Action != "tempfail" || !ans.Reused {
			return fmt.Errorf("greylist(%s) = %+v, want reused tempfail", ip, ans)
		}
		if ans.MinDelaySeconds <= 0 || ans.RetryWindowSeconds <= ans.MinDelaySeconds {
			return fmt.Errorf("greylist(%s) window %d/%d makes no sense",
				ip, ans.MinDelaySeconds, ans.RetryWindowSeconds)
		}
		if ans.Expires == nil || !ans.Expires.After(time.Now()) {
			return fmt.Errorf("greylist(%s) expires %v, want a future instant", ip, ans.Expires)
		}
		v, err := s.Verdict(ip)
		if err != nil {
			return err
		}
		if ans.Verdict != v {
			return fmt.Errorf("greylist verdict %+v disagrees with /v1/check %+v", ans.Verdict, v)
		}
		return nil
	}
	if err := checkReused(served[0]); err != nil {
		return err
	}
	if err := checkReused(pfx.Nth(1).String()); err != nil {
		return err
	}

	clean, err := s.Greylist("", "192.0.2.1")
	if err != nil {
		return err
	}
	if clean.Action != "block" || clean.Reused {
		return fmt.Errorf("greylist(clean) = %+v, want non-reused block", clean)
	}
	if clean.MinDelaySeconds != 0 || clean.RetryWindowSeconds != 0 || clean.Expires != nil {
		return fmt.Errorf("greylist(clean) carries a greylisting window: %+v", clean)
	}
	return nil
}

// runCheckLoad drives the zero-alloc check path concurrently and requires
// every request to succeed.
func runCheckLoad(s *Stack) error {
	served, err := s.ServedNATed()
	if err != nil {
		return err
	}
	if len(served) == 0 {
		return fmt.Errorf("nothing served to load against")
	}
	targets := append(served, "203.0.113.99", "192.0.2.1", "8.8.8.8")

	lg := LoadGen{
		BaseURL:     s.BaseURL,
		Targets:     targets,
		Concurrency: 8,
		Duration:    3 * time.Second,
	}
	if s.Short {
		lg.Concurrency = 4
		lg.Duration = time.Second
	}
	res, err := lg.Run()
	if err != nil {
		return err
	}
	if res.Errors > 0 {
		return fmt.Errorf("load run saw %d/%d errors", res.Errors, res.Requests)
	}
	if res.Requests == 0 {
		return fmt.Errorf("load run completed no requests")
	}
	return nil
}
