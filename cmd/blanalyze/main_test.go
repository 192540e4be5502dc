package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/analysis"
	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/blocklist"
	"github.com/reuseblock/reuseblock/internal/core"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/pfx2as"
	"github.com/reuseblock/reuseblock/internal/stats"
)

func TestRunHelp(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Fatalf("-h exited %d, want 0\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "Usage of blanalyze") {
		t.Fatalf("-h did not print usage:\n%s", errb.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
}

func TestRunMissingFeeds(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 1 {
		t.Fatalf("missing -feeds exited %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "-feeds is required") {
		t.Fatalf("missing-flag error not reported:\n%s", errb.String())
	}
}

func TestRunNonexistentFeedsDir(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-feeds", filepath.Join(t.TempDir(), "nope")}, &out, &errb); code != 1 {
		t.Fatalf("nonexistent feeds dir exited %d, want 1", code)
	}
}

// TestRunAnalyzesSnapshots builds a miniature on-disk dataset by hand — two
// standard feeds over two days, a NATed list, a dynamic prefix, a pfx2as
// table — and checks the analysis renders its summary and figures.
func TestRunAnalyzesSnapshots(t *testing.T) {
	dir := t.TempDir()
	feeds := filepath.Join(dir, "feeds")
	if err := os.MkdirAll(feeds, 0o755); err != nil {
		t.Fatal(err)
	}
	snapshots := map[string]string{
		"bad-ips-01_2020-01-01.txt":  "# snap\n203.0.113.7\n203.0.113.9\n",
		"bad-ips-01_2020-01-02.txt":  "# snap\n203.0.113.7\n",
		"bambenek-01_2020-01-01.txt": "# snap\n198.51.100.3\n203.0.113.9\n",
		"bambenek-01_2020-01-02.txt": "# snap\n198.51.100.3\n",
	}
	for name, body := range snapshots {
		if err := os.WriteFile(filepath.Join(feeds, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	nated := filepath.Join(dir, "nated.txt")
	if err := os.WriteFile(nated, []byte("203.0.113.7\t12\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dyn := filepath.Join(dir, "dynamic.txt")
	if err := os.WriteFile(dyn, []byte("198.51.100.0/24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pfxPath := filepath.Join(dir, "pfx2as.txt")
	tbl := pfx2as.New()
	tbl.Add(iputil.MustParsePrefix("203.0.113.0/24"), 64500)
	tbl.Add(iputil.MustParsePrefix("198.51.100.0/24"), 64501)
	pf, err := os.Create(pfxPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := pfx2as.Write(pf, tbl); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	code := run([]string{
		"-feeds", feeds, "-nated", nated, "-dynamic", dyn, "-pfx2as", pfxPath, "-workers", "1",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("analysis exited %d\nstderr: %s", code, errb.String())
	}
	for _, want := range []string{
		"loaded 2 observation days",
		"loaded 1 NATed addresses",
		"loaded 1 dynamic prefixes",
		"Reuse summary",
		"NATed listings",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestAnalyzeMatchesStudyReport pins the operator path to the study: a small
// study's datasets, written to disk in the formats blgen, blcrawl and
// bldetect write, must give back the report's Figures 5-8 byte for byte.
// Figure 3 differs in two inputs blanalyze does not have, and the pin names
// both: without the crawl's observed addresses it has no "blocklisted
// BitTorrent addresses" series, and without the RIPE probes' prefixes its
// RIPE series counts the detected dynamic prefixes instead. The study skips
// the ICMP baseline, for which blanalyze has no input either, so Figure 6's
// Cai et al. series is empty on both sides.
func TestAnalyzeMatchesStudyReport(t *testing.T) {
	wp := blgen.DefaultParams(1)
	wp.Scale = 0.05
	st := core.NewStudy(core.Config{Seed: 1, World: &wp, CrawlDuration: 2 * time.Hour, SkipICMP: true})
	rep, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	w := st.World
	dir := t.TempDir()
	create := func(name string, write func(f *os.File) error) string {
		t.Helper()
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// Feeds: one snapshot per feed per day it lists anything, as blgen
	// writes them.
	if err := os.Mkdir(filepath.Join(dir, "feeds"), 0o755); err != nil {
		t.Fatal(err)
	}
	for fi, feed := range w.Registry.Feeds {
		listed := w.Collection.FeedAddrs(fi).Sorted()
		for d, day := range w.Collection.Days() {
			addrs := iputil.NewSet()
			for _, a := range listed {
				if w.Collection.Present(fi, d, a) {
					addrs.Add(a)
				}
			}
			if addrs.Len() == 0 {
				continue
			}
			create(filepath.Join("feeds", fmt.Sprintf("%s_%s.txt", feed.Name, day.Format("2006-01-02"))),
				func(f *os.File) error { return blocklist.WritePlain(f, addrs, feed.Name+" snapshot") })
		}
	}
	pfxPath := create("pfx2as.txt", func(f *os.File) error {
		tbl := pfx2as.New()
		for _, a := range w.ASes {
			for _, pi := range a.Prefixes {
				tbl.Add(pi.Prefix, pi.ASN)
			}
		}
		return pfx2as.Write(f, tbl)
	})
	natedPath := create("nated.txt", func(f *os.File) error {
		users := make(map[iputil.Addr]int, len(st.NATed))
		for _, o := range st.NATed {
			users[o.Addr] = o.Users
		}
		return blocklist.WriteNATedList(f, users, "NATed addresses detected by blcrawl (addr<TAB>users lower bound)")
	})
	dynPath := create("dynamic.txt", func(f *os.File) error {
		for _, p := range st.RIPE.DynamicPrefixes.Sorted() {
			if _, err := fmt.Fprintln(f, p); err != nil {
				return err
			}
		}
		return nil
	})

	var out, errb bytes.Buffer
	if err := analyze(filepath.Join(dir, "feeds"), natedPath, dynPath, pfxPath, 1, &out, &errb); err != nil {
		t.Fatalf("analyze: %v\nstderr: %s", err, errb.String())
	}
	if len(st.NATed) == 0 || st.RIPE.DynamicPrefixes.Len() == 0 {
		t.Fatalf("study found %d NATed addresses and %d dynamic prefixes; the pin needs both",
			len(st.NATed), st.RIPE.DynamicPrefixes.Len())
	}
	onDisk := *st.Inputs
	onDisk.BTObserved = nil
	onDisk.RIPEPrefixes = onDisk.DynamicPrefixes
	for _, want := range []*stats.Figure{
		rep.PerList.Figure5(), rep.PerList.Figure6(), rep.Durations.Figure7(), rep.NATUsers.Figure8(),
		analysis.ComputeASOverlap(&onDisk).Figure3(),
	} {
		if got := section(out.String(), want.Title); got != want.Render() {
			t.Errorf("blanalyze's %q differs from the report's\nblanalyze:\n%s\nreport:\n%s",
				want.Title, got, want.Render())
		}
	}
}

// section returns the block of out that starts with the "== title ==" line
// and runs to the next blank line.
func section(out, title string) string {
	i := strings.Index(out, "== "+title+" ==\n")
	if i < 0 {
		return ""
	}
	if n := strings.Index(out[i:], "\n\n"); n >= 0 {
		return out[i : i+n+1]
	}
	return out[i:]
}
