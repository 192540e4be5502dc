package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/reuseblock/reuseblock/internal/blocklist"
)

// TestRunSimulatedOnlyFlags: -replay runs no simulated crawl, so a fault
// scenario given with it would be silently dropped; instead it exits 2 and
// prints both the offending flag and the usage text.
func TestRunSimulatedOnlyFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
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

// TestRunOutParsesAsNATedList runs one whole crawl of a seeded world. Its
// -out file must parse in the list format the pipeline serves from, with
// user lower bounds of at least 2.
func TestRunOutParsesAsNATedList(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated crawl")
	}
	path := filepath.Join(t.TempDir(), "nated.txt")
	var out, errb bytes.Buffer
	if code := run([]string{"-seed", "7", "-scale", "0.05", "-duration", "6h", "-out", path}, &out, &errb); code != 0 {
		t.Fatalf("crawl exited %d\nstderr: %s", code, errb.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	users, err := blocklist.ParseNATedList(f)
	if err != nil {
		t.Fatalf("crawl output does not round-trip: %v", err)
	}
	if len(users) == 0 {
		t.Fatal("crawl detected nothing; scenario operating point is broken")
	}
	for addr, n := range users {
		if n < 2 {
			t.Errorf("%s written with users=%d; the list format floors at 2", addr, n)
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
