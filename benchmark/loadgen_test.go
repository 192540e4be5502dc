package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// getter sends every event as a GET to url over one client per connection.
func getter(t *testing.T, url string, conns int) func(int, event) error {
	clients := make([]*http.Client, conns)
	for i := range clients {
		clients[i] = newClient()
	}
	t.Cleanup(func() { closeClients(clients) })
	return func(c int, _ event) error {
		resp, err := clients[c].Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
}

// A handler that stalls once for 50 ms must show up in the tail of the
// latencies and of the send lag: the requests queued behind the stall are
// timed from their schedule, not from their late send.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	var once sync.Once
	start := time.Now()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if time.Since(start) > 300*time.Millisecond {
			once.Do(func() { time.Sleep(50 * time.Millisecond) })
		}
	}))
	defer srv.Close()

	res := runOpenLoop(time.Second, 2, []stream{{"check", 1000}}, getter(t, srv.URL, 2))
	if res.failed > 0 {
		t.Fatalf("%d requests failed: %v", res.failed, res.failures)
	}
	if p99 := percentile(res.lat[0], 0.99); p99 < 20*time.Millisecond {
		t.Errorf("p99 %v hides the 50ms stall", p99)
	}
	if lag := percentile(res.lag, 0.99); lag < 15*time.Millisecond {
		t.Errorf("lag p99 %v hides the requests queued behind the stall", lag)
	}
	if res.sent != res.scheduled {
		t.Errorf("sent %d of %d scheduled requests within the phase", res.sent, res.scheduled)
	}
}

// A rate beyond what the handler can serve must fail its ladder step on the
// growing backlog, and the search must settle below it.
func TestLadderRejectsOverloadedStep(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Millisecond) // two connections: at most ~2000 rps
	}))
	defer srv.Close()
	send := getter(t, srv.URL, 2)
	for c := 0; c < 2; c++ { // dial both connections before the first step
		if err := send(c, event{}); err != nil {
			t.Fatal(err)
		}
	}

	var probed []float64
	best := searchLadder([]float64{100, 200, 400, 6400, 12800}, func(rate float64) error {
		probed = append(probed, rate)
		err := runOpenLoop(time.Second, 2, []stream{{"check", rate}}, send).meets(0, 50*time.Millisecond)
		t.Logf("%.0f rps: %v", rate, err)
		if rate == 6400 && err == nil {
			t.Errorf("overloaded step at %.0f rps accepted", rate)
		}
		return err
	})
	if best != 400 {
		t.Errorf("ladder settled at %.0f rps after probing %v, want 400", best, probed)
	}
}

func TestPerSecondIgnoresOneBadSecond(t *testing.T) {
	var r loadResult
	r.dur = 5 * time.Second
	for sec := 0; sec < 5; sec++ {
		for i := 0; i < 100; i++ {
			lat := time.Millisecond
			if sec == 2 {
				lat = time.Second
			}
			r.events = append(r.events, event{due: time.Duration(sec)*time.Second + time.Duration(i)*time.Millisecond})
			r.byDue = append(r.byDue, lat)
		}
	}
	if got := r.perSecond(0, 0.99); got != time.Millisecond {
		t.Errorf("perSecond p99 = %v, want 1ms", got)
	}
}
