package ripeatlas

import (
	"math"
	"math/rand"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

// ProbeSpec describes one simulated probe's allocation policy. IDs and ASNs
// must fit in 32 bits, the width of a LogEntry's fields.
type ProbeSpec struct {
	ID  int
	ASN int
	// Pool is the prefix addresses are drawn from.
	Pool iputil.Prefix
	// MeanLease is the average address-lease duration; zero makes the
	// probe static (a single address for its whole life).
	MeanLease time.Duration
	// MoveAt, when non-zero, relocates the probe at that offset from the
	// fleet start into MovePool/MoveASN — modelling probes that change
	// hosts or ISPs, which the paper's same-AS filter must exclude.
	MoveAt   time.Duration
	MovePool iputil.Prefix
	MoveASN  int
	// ReconnectEvery adds periodic disconnect/connect pairs on the same
	// address (flaky uplinks); zero disables them.
	ReconnectEvery time.Duration
}

// FleetParams configures SimulateFleet.
type FleetParams struct {
	Seed     int64
	Start    time.Time
	Duration time.Duration
	Probes   []ProbeSpec
}

// SimulateFleet plays out every probe's allocation policy over the window
// and returns the merged, time-sorted connection log. The output is
// allocated once, sized from each probe's expected event count.
func SimulateFleet(p FleetParams) []LogEntry {
	rng := rand.New(rand.NewSource(p.Seed))
	out := make([]LogEntry, 0, expectedLogLen(p))
	for i := range p.Probes {
		out = simulateProbe(out, rng, p.Start.UnixNano(), int64(p.Duration), &p.Probes[i])
	}
	SortLogs(out)
	return out
}

// expectedLogLen is a capacity for SimulateFleet's output: each probe's
// first connect, a disconnect/connect pair per mean lease and per reconnect
// period, and a pair for a move, plus about four standard deviations of
// slack. Lease gaps are clamped to at least five minutes and reconnect gaps
// are uniform about their period, so both counts run at or under their
// means; a fleet that still overruns only costs append one regrowth.
func expectedLogLen(p FleetParams) int {
	dur := float64(p.Duration)
	n := 0.0
	for i := range p.Probes {
		spec := &p.Probes[i]
		n++
		if spec.MeanLease > 0 {
			n += 2 * dur / float64(spec.MeanLease)
		}
		if spec.ReconnectEvery > 0 {
			n += 2 * dur / float64(spec.ReconnectEvery)
		}
		if spec.MoveAt > 0 {
			n += 2
		}
	}
	return int(n + 6*math.Sqrt(n))
}

// simulateProbe appends spec's log over [start, start+dur] to out. Times are
// Unix nanoseconds throughout.
func simulateProbe(out []LogEntry, rng *rand.Rand, start, dur int64, spec *ProbeSpec) []LogEntry {
	id, asn := int32(spec.ID), int32(spec.ASN)
	emit := func(at int64, ev Event, addr iputil.Addr) {
		out = append(out, LogEntry{UnixNano: at, ProbeID: id, ASN: asn, Addr: addr, Event: ev})
	}
	const hour = int64(time.Hour)
	end := start + dur
	now := start
	pool := spec.Pool
	cur := randomHost(rng, pool, 0)
	emit(now, EventConnect, cur)

	nextReconnect := end + hour
	if spec.ReconnectEvery > 0 {
		nextReconnect = now + int64(jittered(rng, spec.ReconnectEvery))
	}
	nextLease := end + hour
	if spec.MeanLease > 0 {
		nextLease = now + int64(expDuration(rng, spec.MeanLease))
	}
	moveTime := end + hour
	if spec.MoveAt > 0 {
		moveTime = start + int64(spec.MoveAt)
	}

	for {
		// Next event is the earliest of lease expiry, reconnect, move.
		next := nextLease
		kind := "lease"
		if nextReconnect < next {
			next, kind = nextReconnect, "reconnect"
		}
		if moveTime < next {
			next, kind = moveTime, "move"
		}
		if next > end {
			break
		}
		now = next
		switch kind {
		case "lease":
			emit(now, EventDisconnect, cur)
			cur = randomHost(rng, pool, cur)
			emit(now+int64(time.Minute), EventConnect, cur)
			nextLease = now + int64(expDuration(rng, spec.MeanLease))
		case "reconnect":
			emit(now, EventDisconnect, cur)
			emit(now+int64(30*time.Second), EventConnect, cur)
			nextReconnect = now + int64(jittered(rng, spec.ReconnectEvery))
		case "move":
			emit(now, EventDisconnect, cur)
			pool, asn = spec.MovePool, int32(spec.MoveASN)
			cur = randomHost(rng, pool, 0)
			emit(now+hour, EventConnect, cur)
			moveTime = end + hour
		}
	}
	return out
}

// randomHost draws a host address from the pool distinct from avoid (pass 0
// to accept anything). Network and broadcast addresses are skipped for
// pools of /30 or shorter.
func randomHost(rng *rand.Rand, pool iputil.Prefix, avoid iputil.Addr) iputil.Addr {
	lo, n := 0, pool.Size()
	if n >= 4 {
		lo, n = 1, n-2
	}
	for {
		a := pool.Nth(lo + rng.Intn(n))
		if a != avoid {
			return a
		}
	}
}

// expDuration draws an exponentially distributed duration with the given
// mean, clamped away from zero so event times stay strictly ordered.
func expDuration(rng *rand.Rand, mean time.Duration) time.Duration {
	d := time.Duration(rng.ExpFloat64() * float64(mean))
	if d < 5*time.Minute {
		d = 5 * time.Minute
	}
	return d
}

// jittered draws uniformly in [0.5, 1.5) times base.
func jittered(rng *rand.Rand, base time.Duration) time.Duration {
	return base/2 + time.Duration(rng.Int63n(int64(base)))
}

// StandardFleet builds a probe fleet shaped like the paper's population
// (Fig 2): a majority of static probes, a band of slow churners, a heavy
// tail of fast churners, and a slice of AS movers. scale multiplies the
// population (scale 1 ≈ 1/10 of the real 15.7K-probe fleet).
func StandardFleet(seed int64, scale float64) FleetParams {
	if scale <= 0 {
		scale = 1
	}
	rng := rand.New(rand.NewSource(seed))
	n := func(base int) int {
		v := int(float64(base) * scale)
		if v < 1 {
			v = 1
		}
		return v
	}
	var probes []ProbeSpec
	id := 1
	addProbe := func(spec ProbeSpec) {
		spec.ID = id
		id++
		probes = append(probes, spec)
	}
	// Pools: give every probe its own /24 in distinct space. ASNs cluster
	// ~8 probes per AS.
	pool := func(i int) iputil.Prefix {
		return iputil.PrefixFrom(iputil.AddrFrom4(60, byte(i/250%250), byte(i%250), 0), 24)
	}
	pi := 0
	asnOf := func() int { return 7000 + pi/8 }

	// 59% static (paper: 9.3K of 15.7K never change).
	for i := 0; i < n(930); i++ {
		addProbe(ProbeSpec{ASN: asnOf(), Pool: pool(pi), ReconnectEvery: 30 * 24 * time.Hour})
		pi++
	}
	// ~27% slow churners: several allocations over 16 months, well above
	// one day between changes.
	for i := 0; i < n(420); i++ {
		lease := time.Duration(20+rng.Intn(90)) * 24 * time.Hour
		addProbe(ProbeSpec{ASN: asnOf(), Pool: pool(pi), MeanLease: lease})
		pi++
	}
	// Fast churners: daily or sub-daily leases — the real dynamic pools.
	for i := 0; i < n(260); i++ {
		lease := time.Duration(6+rng.Intn(30)) * time.Hour
		addProbe(ProbeSpec{ASN: asnOf(), Pool: pool(pi), MeanLease: lease})
		pi++
	}
	// ~13% AS movers, excluded by the same-AS filter.
	for i := 0; i < n(200); i++ {
		moveAt := time.Duration(60+rng.Intn(300)) * 24 * time.Hour
		p1, p2 := pool(pi), pool(pi+5000)
		addProbe(ProbeSpec{
			ASN: asnOf(), Pool: p1, MeanLease: 15 * 24 * time.Hour,
			MoveAt: moveAt, MovePool: p2, MoveASN: 9000 + pi,
		})
		pi++
	}
	return FleetParams{
		Seed:     seed,
		Start:    time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC),
		Duration: 16 * 30 * 24 * time.Hour, // ~16 months
		Probes:   probes,
	}
}
