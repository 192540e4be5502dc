package e2e

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

func TestWaitFor(t *testing.T) {
	calls := 0
	err := WaitFor(time.Second, time.Millisecond, func() (bool, error) {
		calls++
		return calls >= 3, nil
	})
	if err != nil {
		t.Fatalf("WaitFor: %v", err)
	}
	if calls != 3 {
		t.Fatalf("condition polled %d times, want 3", calls)
	}

	if err := WaitFor(20*time.Millisecond, time.Millisecond, func() (bool, error) {
		return false, nil
	}); err == nil {
		t.Fatal("WaitFor did not time out")
	}

	terminal := errors.New("process exited")
	if err := WaitFor(time.Second, time.Millisecond, func() (bool, error) {
		return false, terminal
	}); !errors.Is(err, terminal) {
		t.Fatalf("WaitFor swallowed the terminal error: %v", err)
	}
}

func TestFindBaseURL(t *testing.T) {
	out := "blserve: dataset ready\nserving on http://127.0.0.1:43521 (pid 9)\n"
	base, ok := FindBaseURL(out)
	if !ok || base != "http://127.0.0.1:43521" {
		t.Fatalf("FindBaseURL = %q, %v", base, ok)
	}
	if _, ok := FindBaseURL("still starting up"); ok {
		t.Fatal("FindBaseURL matched output without a URL")
	}
}

func TestMetricValue(t *testing.T) {
	metrics := "# TYPE wall_dataset_reloads_total counter\n" +
		"wall_dataset_reloads_total 3\n" +
		"wall_dataset_reloads_total_created 1.5\n" +
		`wall_api_requests_total{endpoint="check"} 17` + "\n"
	if v, ok := MetricValue(metrics, "wall_dataset_reloads_total"); !ok || v != 3 {
		t.Fatalf("reloads = %v, %v; want 3", v, ok)
	}
	if v, ok := MetricValue(metrics, `wall_api_requests_total{endpoint="check"}`); !ok || v != 17 {
		t.Fatalf("labeled metric = %v, %v; want 17", v, ok)
	}
	if _, ok := MetricValue(metrics, "wall_absent_total"); ok {
		t.Fatal("MetricValue found an absent metric")
	}
}

func TestMergeNATedShards(t *testing.T) {
	dir := t.TempDir()
	shard := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := shard("a.txt", "# shard a\n1.2.3.4\t5\n9.9.9.9\t2\n")
	b := shard("b.txt", "# shard b\n1.2.3.4\t11\n8.8.4.4\t3\n")

	merged, err := MergeNATedShards([]string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"1.2.3.4": 11, "9.9.9.9": 2, "8.8.4.4": 3}
	if len(merged) != len(want) {
		t.Fatalf("merged %d addresses, want %d", len(merged), len(want))
	}
	for ip, users := range want {
		if got := merged[iputil.MustParseAddr(ip)]; got != users {
			t.Errorf("%s merged to %d users, want max %d", ip, got, users)
		}
	}
}

func TestParseAddrLines(t *testing.T) {
	body := []byte("# header comment\n\n1.2.3.4\t5\n10.0.0.0/24\n")
	got := parseAddrLines(body)
	want := []string{"1.2.3.4", "10.0.0.0/24"}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parsed %v, want %v", got, want)
		}
	}
}
