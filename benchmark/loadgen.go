package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// stream is one fixed-rate request source of an open-loop phase.
type stream struct {
	name string
	rate float64 // requests per second
}

// event is one scheduled request.
type event struct {
	due    time.Duration // send time relative to the phase start
	stream int           // index into the phase's streams
	seq    int           // position within its stream
}

// schedule merges fixed-rate streams into one time-ordered list: stream s
// sends its i'th request at (i + 0.5) / rate seconds.
func schedule(dur time.Duration, streams []stream) []event {
	var evs []event
	for s, st := range streams {
		n := int(st.rate * dur.Seconds())
		for i := 0; i < n; i++ {
			due := time.Duration((float64(i) + 0.5) / st.rate * float64(time.Second))
			evs = append(evs, event{due: due, stream: s, seq: i})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].due < evs[j].due })
	return evs
}

// loadResult is what one open-loop phase measured.
type loadResult struct {
	dur       time.Duration
	scheduled int
	sent      int // requests on the wire before the phase's end
	failed    int
	failures  []string
	lat       [][]time.Duration // per stream, sorted: completion minus due time
	lag       []time.Duration   // sorted: actual send minus due time
	tailLag   time.Duration     // median lag over the last tenth of the schedule

	events []event         // the schedule, in due order
	byDue  []time.Duration // completion minus due time, aligned with events
}

// perSecond returns the median, over the phase's whole seconds, of each
// second's q-quantile latency on stream s. A stall that hits one second
// moves one of the values it takes the median of, not the result.
func (r loadResult) perSecond(s int, q float64) time.Duration {
	secs := make([][]time.Duration, int(r.dur/time.Second))
	for i, ev := range r.events {
		if k := int(ev.due / time.Second); ev.stream == s && k < len(secs) {
			secs[k] = append(secs[k], r.byDue[i])
		}
	}
	vals := make([]float64, 0, len(secs))
	for _, sec := range secs {
		if len(sec) == 0 {
			continue
		}
		sortDurations(sec)
		vals = append(vals, float64(percentile(sec, q)))
	}
	return time.Duration(median(vals))
}

// runOpenLoop sends the scheduled events over conns connections. Connection
// c takes events c, c+conns, c+2*conns, ... in order and sends each at its
// due time, or at once when it is already late. Every request is timed from
// its due time, so a stall is charged to each request queued behind it
// rather than hidden by the generator slowing down (coordinated omission).
// send performs and checks one request on the given connection.
func runOpenLoop(dur time.Duration, conns int, streams []stream, send func(conn int, ev event) error) loadResult {
	events := schedule(dur, streams)
	lat := make([]time.Duration, len(events))
	lag := make([]time.Duration, len(events))
	errs := make([]error, len(events))
	// Each queue can hold its connection's whole share of the schedule, so
	// the pacer never waits behind a backlogged connection.
	queues := make([]chan int, conns)
	for c := range queues {
		queues[c] = make(chan int, len(events)/conns+1)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range queues[c] {
				due := start.Add(events[i].due)
				sent := time.Now()
				errs[i] = send(c, events[i])
				lat[i] = time.Since(due)
				lag[i] = sent.Sub(due)
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		pace(start, events, queues)
	}()
	wg.Wait()

	res := loadResult{dur: dur, scheduled: len(events), lat: make([][]time.Duration, len(streams)),
		events: events, byDue: append([]time.Duration(nil), lat...)}
	for i, ev := range events {
		if ev.due+lag[i] < dur {
			res.sent++
		}
		res.lat[ev.stream] = append(res.lat[ev.stream], lat[i])
		if errs[i] != nil {
			res.failed++
			if len(res.failures) < 5 {
				res.failures = append(res.failures, fmt.Sprintf("%s #%d: %v", streams[ev.stream].name, ev.seq, errs[i]))
			}
		}
	}
	tail := append([]time.Duration(nil), lag[len(lag)-len(lag)/10:]...)
	sortDurations(tail)
	res.tailLag = percentile(tail, 0.5)
	res.lag = lag
	sortDurations(res.lag)
	for _, l := range res.lat {
		sortDurations(l)
	}
	return res
}

// pace hands each event to its connection's queue at its due time, then
// closes the queues. It sleeps in nanosleep on a thread of its own with 1µs
// timer slack: the Go timer rounds a sub-millisecond wait up to a whole
// millisecond whenever the process is otherwise idle, which at a few
// thousand requests per second would be most of the schedule. The locked
// thread exits with the goroutine, taking its timer slack with it.
func pace(start time.Time, events []event, queues []chan int) {
	runtime.LockOSThread()
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	for i, ev := range events {
		due := start.Add(ev.due)
		for d := time.Until(due); d > 0; d = time.Until(due) {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // EINTR just sleeps again
		}
		queues[i%len(queues)] <- i
	}
	for _, q := range queues {
		close(q)
	}
}

const prSetTimerSlack = 29 // PR_SET_TIMERSLACK from linux/prctl.h

// meets reports why a phase missed the latency limit on stream s, or nil:
// a failed request, a p99 over the limit, or a backlog that kept growing
// (the last tenth of the schedule went out later than the limit).
func (r loadResult) meets(s int, limit time.Duration) error {
	switch {
	case r.failed > 0:
		return fmt.Errorf("%d of %d requests failed", r.failed, r.scheduled)
	case percentile(r.lat[s], 0.99) > limit:
		return fmt.Errorf("p99 %v over the %v limit", percentile(r.lat[s], 0.99), limit)
	case r.tailLag > limit:
		return fmt.Errorf("backlog grew: last tenth sent %v late", r.tailLag)
	}
	return nil
}

// rateLadder is the fixed ladder of offered rates: 5% geometric steps from
// lo up to hi.
func rateLadder(lo, hi float64) []float64 {
	var rates []float64
	for r := lo; r <= hi; r *= 1.05 {
		rates = append(rates, math.Round(r))
	}
	return rates
}

// searchLadder finds the highest ladder step that probe accepts, bisecting
// on the assumption that a step above a failing one fails too. It returns 0
// when even the lowest step fails.
func searchLadder(rates []float64, probe func(rate float64) error) float64 {
	lo, hi := -1, len(rates)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if probe(rates[mid]) == nil {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0
	}
	return rates[lo]
}

// tailName picks the highest of p99, p95, p90 and p50 that has at least ten
// samples beyond it in n samples, and names the metric after it.
func tailName(base string, n int) (string, float64) {
	for _, p := range []float64{0.99, 0.95, 0.90} {
		if float64(n)*(1-p) >= 10 {
			return fmt.Sprintf("%s_p%d_ms", base, int(math.Round(p*100))), p
		}
	}
	return base + "_p50_ms", 0.5
}
