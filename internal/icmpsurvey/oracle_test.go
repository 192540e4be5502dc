package icmpsurvey

import (
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

// surveyBlockPerProbe is the survey's original step-major loop: it asks the
// responder about every probe and accounts one probe at a time, ignoring
// every promise. It stays as the reference surveyBlock's run accounting
// must reproduce exactly. Its loss draws are keyed the way echo keys them.
func surveyBlockPerProbe(r Responder, block iputil.Prefix, cfg Config, steps int) blockResult {
	type state struct {
		m      Metrics
		up     bool
		runLen int
		runs   []int
	}
	var out blockResult
	responds := r.Block(block)
	states := make([]state, block.Size())
	for s := 0; s < steps; s++ {
		at := cfg.Start.Add(time.Duration(s) * cfg.Interval)
		for i := range states {
			addr := block.Base() + iputil.Addr(i)
			replies, _ := responds(addr, at)
			out.probesSent++
			if cfg.ProbeLoss > 0 {
				if replies {
					fate := netsim.NewFate(cfg.Seed, netsim.Endpoint{Addr: addr}, netsim.Endpoint{}, uint64(s))
					got := fate.Float64() >= cfg.ProbeLoss
					for k := 0; k < cfg.Retransmits && !got; k++ {
						out.probesSent++
						out.retransmissions++
						got = fate.Float64() >= cfg.ProbeLoss
					}
					replies = got
				} else {
					out.probesSent += int64(cfg.Retransmits)
					out.retransmissions += int64(cfg.Retransmits)
				}
			}
			st := &states[i]
			st.m.Probes++
			if replies {
				st.m.Replies++
				if !st.up && s > 0 {
					st.m.Transitions++
				}
				st.up = true
				st.runLen++
			} else {
				if st.up {
					st.m.Transitions++
					st.runs = append(st.runs, st.runLen)
					st.runLen = 0
				}
				st.up = false
			}
		}
	}
	summary := BlockSummary{Block: block}
	var availabilities []float64
	var medUptimes []time.Duration
	for i := range states {
		st := &states[i]
		if st.m.Replies == 0 {
			continue
		}
		if st.runLen > 0 {
			st.runs = append(st.runs, st.runLen)
		}
		st.m.A = float64(st.m.Replies) / float64(st.m.Probes)
		if st.m.Probes > 1 {
			st.m.V = float64(st.m.Transitions) / float64(st.m.Probes-1)
		}
		sort.Ints(st.runs)
		st.m.MedianUptime = time.Duration(st.runs[len(st.runs)/2]) * cfg.Interval
		out.addrs = append(out.addrs, addrMetrics{block.Nth(i), st.m})
		summary.Responsive++
		availabilities = append(availabilities, st.m.A)
		medUptimes = append(medUptimes, st.m.MedianUptime)
	}
	if summary.Responsive > 0 {
		sum := 0.0
		for _, a := range availabilities {
			sum += a
		}
		summary.MeanA = sum / float64(summary.Responsive)
		sort.Slice(medUptimes, func(i, j int) bool { return medUptimes[i] < medUptimes[j] })
		summary.MedianUptime = medUptimes[len(medUptimes)/2]
	}
	summary.Dynamic = summary.Responsive >= minResponsive &&
		summary.MedianUptime <= maxMedianUptime &&
		summary.MeanA <= maxAvailability
	out.summary = summary
	return out
}

// checkAgainstOracle surveys every block both ways and fails on the first
// difference in a Metrics, a BlockSummary or a probe count.
func checkAgainstOracle(t *testing.T, name string, r Responder, blocks []iputil.Prefix, cfg Config) {
	t.Helper()
	cfg.applyDefaults()
	steps := max(int(cfg.Duration/cfg.Interval), 1)
	for _, b := range blocks {
		got, want := surveyBlock(r, b, cfg, steps), surveyBlockPerProbe(r, b, cfg, steps)
		if got.summary != want.summary {
			t.Fatalf("%s: block %v summary %+v, oracle %+v", name, b, got.summary, want.summary)
		}
		if got.probesSent != want.probesSent || got.retransmissions != want.retransmissions {
			t.Fatalf("%s: block %v probes/retransmissions %d/%d, oracle %d/%d", name, b,
				got.probesSent, got.retransmissions, want.probesSent, want.retransmissions)
		}
		if !slices.Equal(got.addrs, want.addrs) {
			for i := range min(len(got.addrs), len(want.addrs)) {
				if g, w := got.addrs[i], want.addrs[i]; g != w {
					t.Fatalf("%s: responsive address %d is %v with metrics %+v, oracle %v with %+v",
						name, i, g.addr, g.m, w.addr, w.m)
				}
			}
			t.Fatalf("%s: block %v has %d responsive addresses, oracle %d", name, b, len(got.addrs), len(want.addrs))
		}
	}
}

// TestSurveyMatchesPerProbeOracle: accounting runs of identical answers in
// O(1) gives exactly what asking about every probe gives — over generated
// worlds (whose promises are exact), over ResponderFunc (which promises
// nothing), with and without probe loss, and on the step grids where run
// boundaries are easiest to get wrong.
func TestSurveyMatchesPerProbeOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		w := blgen.Generate(blgen.TestParams(seed))
		var blocks []iputil.Prefix
		w.PrefixTable.Walk(func(p iputil.Prefix, _ *blgen.PrefixInfo) bool {
			blocks = append(blocks, p)
			return true
		})
		for _, tc := range []struct {
			name string
			cfg  Config
		}{
			{"hourly", Config{Start: w.RIPEStart, Duration: 14 * 24 * time.Hour, Interval: time.Hour}},
			// 50 minutes does not divide any lease (6 h and up), so lease
			// ends fall between probes.
			{"50min", Config{Start: w.RIPEStart.Add(17 * time.Minute), Duration: 9 * 24 * time.Hour, Interval: 50 * time.Minute}},
			// Before RIPEStart, truncating division makes slot 0 two
			// leases long; the window straddles it.
			{"before-start", Config{Start: w.RIPEStart.Add(-8*24*time.Hour - 7*time.Minute), Duration: 12 * 24 * time.Hour, Interval: 2 * time.Hour}},
			{"ragged", Config{Start: w.RIPEStart, Duration: 5*24*time.Hour + 37*time.Minute, Interval: 3 * time.Hour}},
			{"one-step", Config{Start: w.RIPEStart.Add(5 * time.Hour), Duration: 30 * time.Minute, Interval: time.Hour}},
			{"lossy", Config{Start: w.RIPEStart.Add(-2 * 24 * time.Hour), Duration: 7 * 24 * time.Hour, Interval: time.Hour,
				ProbeLoss: 0.2, Retransmits: 2, Seed: seed}},
		} {
			checkAgainstOracle(t, tc.name, w, blocks, tc.cfg)
		}
	}

	lease := &leaseWorld{
		dynamic: iputil.MustParsePrefix("10.1.0.0/24"),
		static:  iputil.MustParsePrefix("10.2.0.0/24"),
		period:  6 * time.Hour,
		onFrac:  0.5,
	}
	flapper := ResponderFunc(func(addr iputil.Addr, at time.Time) bool {
		return int(addr)%5 != 0 && (at.Unix()/1800+int64(addr))%7 < 3
	})
	blocks := []iputil.Prefix{lease.dynamic, lease.static, iputil.MustParsePrefix("10.3.0.0/24")}
	for _, loss := range []float64{0, 0.3} {
		cfg := Config{Start: start, Duration: 3*24*time.Hour + 20*time.Minute, Interval: 50 * time.Minute,
			ProbeLoss: loss, Retransmits: 1, Seed: 9}
		checkAgainstOracle(t, "leaseWorld", lease, blocks, cfg)
		checkAgainstOracle(t, "flapper", flapper, blocks, cfg)
	}
}

// seriesResponder answers from a fixed per-address series of step answers
// and promises a fuzz-chosen instant no later than the next change.
type seriesResponder struct {
	start    time.Time
	interval time.Duration
	answers  [][]bool  // answers[addr index][step]
	promise  [][]uint8 // how far toward the next change each promise reaches
}

func (r *seriesResponder) Block(block iputil.Prefix) func(iputil.Addr, time.Time) (bool, time.Time) {
	return func(addr iputil.Addr, at time.Time) (bool, time.Time) {
		i := int(addr - block.Base())
		series, promise := r.answers[i], r.promise[i]
		s := int(at.Sub(r.start) / r.interval)
		next := s + 1
		for next < len(series) && series[next] == series[s] {
			next++
		}
		p := promise[s]
		if next == len(series) && p%2 == 1 {
			return series[s], time.Time{}
		}
		// Any instant in (at, start+next·interval] keeps the promise.
		room := r.start.Add(time.Duration(next) * r.interval).Sub(at)
		return series[s], at.Add(1 + (room-1)*time.Duration(p)/255)
	}
}

// FuzzSurveyRuns: for random answer series, random truthful promises and
// random loss settings, surveyBlock accounts exactly what the per-probe
// oracle accounts.
func FuzzSurveyRuns(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0xff, 0x0f, 0xf0, 0x55, 0xaa})
	f.Add([]byte{3, 7, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{255, 255, 255, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		cfg := Config{
			Start:       start,
			Interval:    time.Duration(1+data[0]%90) * time.Minute,
			Retransmits: int(data[1] % 3),
			Seed:        int64(data[1]),
			Workers:     1,
		}
		if data[2]%2 == 1 {
			cfg.ProbeLoss = 0.35
		}
		data = data[3:]
		steps := 1 + len(data)%40
		// A ragged tail exercises the partial last interval.
		cfg.Duration = time.Duration(steps)*cfg.Interval + time.Duration(data[0])*time.Second%cfg.Interval
		block := iputil.MustParsePrefix("10.9.0.0/30")
		r := &seriesResponder{start: cfg.Start, interval: cfg.Interval}
		for i := 0; i < block.Size(); i++ {
			answers, promise := make([]bool, steps), make([]uint8, steps)
			for s := range answers {
				b := data[(i*steps+s)%len(data)]
				answers[s] = (b>>uint(i))&1 == 1
				promise[s] = b * uint8(2*i+1)
			}
			r.answers, r.promise = append(r.answers, answers), append(r.promise, promise)
		}
		checkAgainstOracle(t, "fuzz", r, []iputil.Prefix{block}, cfg)
	})
}
