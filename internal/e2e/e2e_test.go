package e2e

import (
	"errors"
	"testing"
	"time"
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
