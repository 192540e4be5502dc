package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/blocklist"
	"github.com/reuseblock/reuseblock/internal/fleet"
	"github.com/reuseblock/reuseblock/internal/iputil"
)

// TestValidateWorkerFlags pins the worker-mode flag contract: budget flags
// must be non-negative, -worker requires -report-to (and vice versa implies
// a positive ID), -report-to must parse as HOST:PORT, and the heartbeat
// period must be positive. Shard parsing itself lives in internal/fleet.
func TestValidateWorkerFlags(t *testing.T) {
	type in struct {
		reportTo    string
		worker      int
		hb          time.Duration
		rate        float64
		burst       int
		maxInflight int
	}
	ok := []in{
		{},                                   // no worker mode, no budget
		{rate: 5, burst: 10, maxInflight: 3}, // budget without a coordinator
		{reportTo: "127.0.0.1:4000", worker: 1, hb: time.Second},
		{reportTo: "127.0.0.1:4000", worker: 7, hb: 50 * time.Millisecond, rate: 0.5},
	}
	for _, c := range ok {
		if _, err := validateWorkerFlags(c.reportTo, c.worker, c.hb, c.rate, c.burst, c.maxInflight); err != nil {
			t.Errorf("validateWorkerFlags(%+v) rejected: %v", c, err)
		}
	}
	bad := []in{
		{rate: -1},
		{burst: -1},
		{maxInflight: -5},
		{worker: 1}, // -worker without -report-to
		{reportTo: "127.0.0.1:4000", worker: 0, hb: time.Second},  // missing -worker
		{reportTo: "127.0.0.1:4000", worker: -2, hb: time.Second}, // negative -worker
		{reportTo: "127.0.0.1:4000", worker: 1, hb: 0},            // heartbeat period
		{reportTo: "nonsense", worker: 1, hb: time.Second},        // unparseable address
		{reportTo: "127.0.0.1:notaport", worker: 1, hb: time.Second},
		{reportTo: "127.0.0.1:0", worker: 1, hb: time.Second}, // port out of range
	}
	for _, c := range bad {
		if _, err := validateWorkerFlags(c.reportTo, c.worker, c.hb, c.rate, c.burst, c.maxInflight); err == nil {
			t.Errorf("validateWorkerFlags(%+v) accepted, want error", c)
		}
	}
}

// TestRunBadWorkerFlags pins the CLI contract for the worker-mode flags:
// like -shard, a malformed value exits 2 and prints both the offending flag
// and the usage text.
func TestRunBadWorkerFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-rate", "-3"}, "invalid -rate"},
		{[]string{"-burst", "-1"}, "invalid -burst"},
		{[]string{"-max-inflight", "-2"}, "invalid -max-inflight"},
		{[]string{"-worker", "1"}, "invalid -worker"},
		{[]string{"-report-to", "127.0.0.1:4000"}, "invalid -worker"},
		{[]string{"-report-to", "garbage", "-worker", "1"}, "invalid -report-to"},
		{[]string{"-report-to", "127.0.0.1:4000", "-worker", "1", "-hb-interval", "0s"}, "invalid -hb-interval"},
		// -real and -replay run no shard crawl: worker, budget and fault
		// flags there would be silently dropped.
		{[]string{"-real", "3", "-report-to", "127.0.0.1:4000", "-worker", "1"}, "invalid -report-to with -real"},
		{[]string{"-real", "3", "-worker", "1"}, "invalid -worker with -real"},
		{[]string{"-real", "3", "-rate", "5"}, "invalid -rate with -real"},
		{[]string{"-replay", "crawl.log", "-max-inflight", "4"}, "invalid -max-inflight with -replay"},
		{[]string{"-replay", "crawl.log", "-burst", "2"}, "invalid -burst with -replay"},
		{[]string{"-replay", "crawl.log", "-faults", "bursty"}, "invalid -faults with -replay"},
		{[]string{"-real", "3", "-hb-interval", "1s"}, "invalid -hb-interval with -real"},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		if code := run(c.args, &out, &errb); code != 2 {
			t.Errorf("%v exited %d, want 2\nstderr: %s", c.args, code, errb.String())
			continue
		}
		if !strings.Contains(errb.String(), c.want) {
			t.Errorf("%v did not report %q:\n%s", c.args, c.want, errb.String())
		}
		if !strings.Contains(errb.String(), "Usage of blcrawl") {
			t.Errorf("%v did not print usage:\n%s", c.args, errb.String())
		}
	}
}

// TestRunBadShard pins the usage-error contract: any rejected -shard exits
// 2 (like other flag errors) and prints both the offending value and the
// usage text, so a fleet launcher's log explains itself.
func TestRunBadShard(t *testing.T) {
	for _, bad := range []string{"3/2", "0/2", "x/y", "1/0", "2"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-shard", bad}, &out, &errb); code != 2 {
			t.Errorf("-shard %s exited %d, want 2", bad, code)
		}
		if !strings.Contains(errb.String(), "invalid -shard") {
			t.Errorf("-shard %s did not report the bad value:\n%s", bad, errb.String())
		}
		if !strings.Contains(errb.String(), "Usage of blcrawl") {
			t.Errorf("-shard %s did not print usage:\n%s", bad, errb.String())
		}
	}
	// A valid -shard is still a usage error where no shard crawl runs.
	for _, mode := range [][]string{{"-real", "3"}, {"-replay", "crawl.log"}} {
		args := append([]string{"-shard", "1/2"}, mode...)
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
		if !strings.Contains(errb.String(), "invalid -shard with "+mode[0]) ||
			!strings.Contains(errb.String(), "Usage of blcrawl") {
			t.Errorf("%v did not report the conflict with usage:\n%s", args, errb.String())
		}
	}
}

// TestShardedCrawlsUnionToFullCrawl runs the same seeded world once whole
// and once split across two shards, and requires the merged shard output to
// carry user lower bounds in the file format the pipeline serves from.
func TestShardedCrawlsUnionToFullCrawl(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated crawl")
	}
	dir := t.TempDir()
	crawl := func(name string, extra ...string) map[iputil.Addr]int {
		t.Helper()
		path := filepath.Join(dir, name)
		args := append([]string{
			"-seed", "7", "-scale", "0.05", "-duration", "6h", "-out", path,
		}, extra...)
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("crawl %s exited %d\nstderr: %s", name, code, errb.String())
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		users, err := blocklist.ParseNATedList(f)
		if err != nil {
			t.Fatalf("shard output %s does not round-trip: %v", name, err)
		}
		return users
	}

	full := crawl("full.txt")
	shard0 := crawl("s0.txt", "-shard", "1/2")
	shard1 := crawl("s1.txt", "-shard", "2/2")

	if len(full) == 0 {
		t.Fatal("unsharded crawl detected nothing; scenario operating point is broken")
	}
	for addr, users := range full {
		if users < 2 {
			t.Errorf("%s written with users=%d; the list format floors at 2", addr, users)
		}
	}
	// Every shard detection must respect the shard split — except the
	// bootstrap address, which stays in every shard's scope so the crawl
	// can take its first step.
	for i, shard := range []map[iputil.Addr]int{shard0, shard1} {
		for addr := range shard {
			if _, inOther := []map[iputil.Addr]int{shard1, shard0}[i][addr]; inOther {
				continue // bootstrap carve-out: in both shards by design
			}
			if got := int(uint32(addr) % 2); got != i {
				t.Errorf("shard %d detected %s which hashes to shard %d", i, addr, got)
			}
		}
	}
}

// TestRunShardMatchesFleetCrawl: a shard crawl started from the command line
// is the crawl fleet workers run — the -out file equals fleet.RunCrawl +
// fleet.WriteOut of the same job byte for byte, and the printed counters are
// that crawl's statistics.
func TestRunShardMatchesFleetCrawl(t *testing.T) {
	dir := t.TempDir()
	got := filepath.Join(dir, "cli.txt")
	var out, errb bytes.Buffer
	if code := run([]string{"-seed", "1", "-scale", "0.05", "-duration", "2h", "-shard", "2/3", "-out", got}, &out, &errb); code != 0 {
		t.Fatalf("shard crawl exited %d\nstderr: %s", code, errb.String())
	}

	res, err := fleet.RunCrawl(fleet.CrawlJob{
		Seed: 1, Scale: 0.05, Duration: 2 * time.Hour, Loss: 0.28,
		Shard: fleet.ShardSpec{Index: 2, N: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, "fleet.txt")
	if err := fleet.WriteOut(want, res.Detected, nil); err != nil {
		t.Fatal(err)
	}
	gotData, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	wantData, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantData) == 0 || !bytes.Equal(gotData, wantData) {
		t.Fatalf("blcrawl -shard output differs from fleet.RunCrawl:\nblcrawl:\n%s\nfleet:\n%s", gotData, wantData)
	}
	for _, line := range []string{
		fmt.Sprintf("messages sent:      %d (get_nodes %d, bt_ping %d)\n",
			res.Stats.MessagesSent, res.Stats.GetNodesSent, res.Stats.PingsSent),
		fmt.Sprintf("NATed IPs:          %d (max %d simultaneous users)\n",
			res.Stats.NATedIPs, res.Stats.SimultaneousMax),
	} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("stdout lacks %q:\n%s", line, out.String())
		}
	}
}

func TestRunHelp(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Fatalf("-h exited %d, want 0\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "Usage of blcrawl") {
		t.Fatalf("-h did not print usage:\n%s", errb.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
}

func TestRunUnknownFaultScenario(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-faults", "does-not-exist"}, &out, &errb); code != 1 {
		t.Fatalf("unknown scenario exited %d, want 1", code)
	}
}

func TestRunReplayMissingLog(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-replay", filepath.Join(t.TempDir(), "nope.log")}, &out, &errb); code != 1 {
		t.Fatalf("missing replay log exited %d, want 1", code)
	}
}

// TestRunSimulatedCrawlAndReplay runs a short simulated crawl that writes a
// message log and a detection list, then replays the log through the CLI —
// the paper's collect-then-post-process loop end to end.
func TestRunSimulatedCrawlAndReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated crawl")
	}
	dir := t.TempDir()
	msgLog := filepath.Join(dir, "crawl.log")
	outList := filepath.Join(dir, "nated.txt")
	var out, errb bytes.Buffer
	code := run([]string{
		"-seed", "1", "-scale", "0.05", "-duration", "2h", "-log", msgLog, "-out", outList,
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("simulated crawl exited %d\nstderr: %s", code, errb.String())
	}
	for _, want := range []string{"messages sent:", "unique IPs:", "NATed IPs:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("crawl output missing %q:\n%s", want, out.String())
		}
	}

	var rout, rerrb bytes.Buffer
	if code := run([]string{"-replay", msgLog}, &rout, &rerrb); code != 0 {
		t.Fatalf("replay exited %d\nstderr: %s", code, rerrb.String())
	}
	if !strings.Contains(rout.String(), "replayed ") {
		t.Errorf("replay output missing summary:\n%s", rout.String())
	}
}
