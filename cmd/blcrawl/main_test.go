package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/reuseblock/reuseblock/internal/blocklist"
	"github.com/reuseblock/reuseblock/internal/iputil"
)

// TestRunSimulatedOnlyFlags: -replay runs no simulated crawl, so a shard or
// fault scenario given with it would be silently dropped; instead it exits
// 2 and prints both the offending flag and the usage text.
func TestRunSimulatedOnlyFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-replay", "crawl.log", "-shard", "1/2"}, "invalid -shard with -replay"},
		{[]string{"-replay", "crawl.log", "-faults", "bursty"}, "invalid -faults with -replay"},
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
// usage text, so a launcher's log explains itself.
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
}

// TestShardOutputsRespectPartition runs the same seeded world once whole
// and once split across two shards. Every file must parse in the list
// format the pipeline serves from, with user lower bounds of at least 2,
// and every address a shard detects must belong to that shard, the
// bootstrap address excepted. It asserts nothing about the union of the
// shards against the whole crawl: a shard walks the DHT only through its
// own addresses and finds fewer NATs.
func TestShardOutputsRespectPartition(t *testing.T) {
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
	for _, list := range []map[iputil.Addr]int{full, shard0, shard1} {
		for addr, users := range list {
			if users < 2 {
				t.Errorf("%s written with users=%d; the list format floors at 2", addr, users)
			}
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

// TestRunShardOneOfOneMatchesWhole: -shard 1/1 is the whole scope, so it
// writes the same -out bytes and the same counter lines as a run without
// -shard.
func TestRunShardOneOfOneMatchesWhole(t *testing.T) {
	dir := t.TempDir()
	crawl := func(name string, extra ...string) ([]byte, string) {
		t.Helper()
		path := filepath.Join(dir, name)
		args := append([]string{"-seed", "1", "-scale", "0.05", "-duration", "2h", "-out", path}, extra...)
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("crawl %v exited %d\nstderr: %s", extra, code, errb.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The first line reports wall time; the rest are counters.
		_, counters, _ := strings.Cut(out.String(), "\n")
		return data, counters
	}
	whole, wholeOut := crawl("whole.txt")
	one, oneOut := crawl("one.txt", "-shard", "1/1")
	if len(whole) == 0 || !bytes.Equal(whole, one) {
		t.Fatalf("-shard 1/1 output differs from the whole crawl:\nwhole:\n%s\n1/1:\n%s", whole, one)
	}
	if !strings.Contains(wholeOut, "NATed IPs:") || wholeOut != oneOut {
		t.Fatalf("-shard 1/1 counters differ from the whole crawl:\nwhole:\n%s\n1/1:\n%s", wholeOut, oneOut)
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
