package netsim

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

// modelEvent is one event in the reference queue: a plain list kept in
// (at, key) order by sorting.
type modelEvent struct {
	at     int64
	seq    int
	key    uint64 // seq for a timer, deliveryKey for a delivery
	state  byte   // 'p' pending, 'f' fired, 's' stopped
	handle Timer
	parent *modelEvent // the event whose firing scheduled this one, or nil
}

// TestClockMatchesModel drives random interleavings of at, AfterEvent, Stop,
// Step, Drain and RunUntil on a Clock and on a reference queue sorted by
// (time, key), and requires the same firing order, the same Stop verdicts
// and the same Pending count after every operation. Every fourth event
// schedules a child when it fires, so scheduling from inside the loop is
// covered too. AfterEvent draws from more delays than the clock has rings,
// so timers go both to rings and to the heap, and delivery-keyed entries
// share instants with them, so timers-before-deliveries is checked across
// both parts of the queue.
func TestClockMatchesModel(t *testing.T) {
	var cov clockModelCoverage
	for seed := int64(1); seed <= 20; seed++ {
		cov.add(runClockModel(t, seed, 400))
	}
	if cov.reusedStops == 0 {
		t.Error("no Stop landed on a fired event whose slot was reused")
	}
	if cov.stoppedTops == 0 {
		t.Error("no RunUntil left a stopped entry at the heap top or a ring head past its end")
	}
	if cov.stoppedRingTops == 0 {
		t.Error("no RunUntil left a stopped entry at a ring head past its end")
	}
	if cov.overflows == 0 {
		t.Error("no AfterEvent found every ring claimed by other delays")
	}
}

// FuzzClockModel runs TestClockMatchesModel's interleavings from a fuzzed
// seed and operation count.
func FuzzClockModel(f *testing.F) {
	f.Add(int64(1), uint16(400))
	f.Add(int64(7), uint16(2000))
	f.Add(int64(-3), uint16(40))
	f.Add(int64(11), uint16(600)) // claims every ring, then overflows to the heap
	f.Fuzz(func(t *testing.T, seed int64, ops uint16) {
		runClockModel(t, seed, int(ops)%4000)
	})
}

// clockModelCoverage counts the corner cases one interleaving reached.
type clockModelCoverage struct {
	reusedStops     int // Stops of a fired event whose slot a pending event holds
	stoppedTops     int // RunUntils that returned with a stopped entry at the heap top or a ring head
	stoppedRingTops int // RunUntils that returned with a stopped entry at a ring head
	overflows       int // AfterEvents of a delay without a ring, every ring claimed
}

func (c *clockModelCoverage) add(o clockModelCoverage) {
	c.reusedStops += o.reusedStops
	c.stoppedTops += o.stoppedTops
	c.stoppedRingTops += o.stoppedRingTops
	c.overflows += o.overflows
}

// stoppedHeads reports whether a stopped entry sits at the heap top and
// whether one sits at a ring head.
func stoppedHeads(c *Clock) (heap, ring bool) {
	stopped := func(e qent) bool { return c.gens[e.slot] != e.gen }
	heap = len(c.heap) > 0 && stopped(c.heap[0])
	for _, q := range c.rings[:c.nrings] {
		if q.n > 0 && stopped(q.buf[q.head]) {
			ring = true
		}
	}
	return heap, ring
}

// hasRing reports whether delay d has a ring on c.
func hasRing(c *Clock, d time.Duration) bool {
	for _, q := range c.rings[:c.nrings] {
		if q.delay == int64(d) {
			return true
		}
	}
	return false
}

// runClockModel runs ops operations of one seeded interleaving.
func runClockModel(t *testing.T, seed int64, ops int) clockModelCoverage {
	rng := rand.New(rand.NewSource(seed))
	c := NewClock()
	var (
		model    []*modelEvent // indexed by seq
		fired    [][2]int64    // (seq, time) in the order the clock ran them
		modelNow int64
		cov      clockModelCoverage
	)
	var schedule func(parent *modelEvent, at int64, viaAfter bool, d time.Duration)
	childDelay := func(seq int) time.Duration { return time.Duration(seq%3) * time.Second }
	// target is event seq's callback: it logs the firing and, for every
	// fourth event, schedules a child.
	target := func(seq int) fn {
		return func() {
			fired = append(fired, [2]int64{int64(seq), c.now})
			if seq%4 == 0 {
				d := childDelay(seq)
				schedule(model[seq], c.now+int64(d), true, d)
			}
		}
	}
	schedule = func(parent *modelEvent, at int64, viaAfter bool, d time.Duration) {
		seq := len(model)
		ev := &modelEvent{at: max(at, modelNow), seq: seq, key: uint64(seq), state: 'p', parent: parent}
		model = append(model, ev)
		if viaAfter {
			if c.nrings == maxRings && !hasRing(c, max(d, 0)) {
				cov.overflows++
			}
			ev.handle = c.AfterEvent(d, target(seq), 0)
		} else {
			ev.handle = c.at(at, target(seq), 0)
		}
	}
	// deliver queues a delivery-keyed entry at at from one of three sources.
	// Its slot holds a timer target rather than a network, so it fires the
	// same callback as a timer, child included.
	sent := map[Endpoint]uint64{}
	deliver := func(at int64, from Endpoint) {
		seq := len(model)
		key := deliveryKey(from, sent[from])
		sent[from]++
		ev := &modelEvent{at: max(at, modelNow), seq: seq, key: key, state: 'p'}
		model = append(model, ev)
		idx, s := c.schedule(at, key)
		s.target = target(seq)
		ev.handle = Timer{c: c, slot: idx, gen: c.gens[idx]}
	}
	// fireModel runs the model's earliest pending event, if any lies at or
	// before end, and returns its seq and time. Children the clock's
	// callbacks scheduled are already in the model. A delivery's child can
	// sort before it (a timer key is below every delivery key), so a child
	// is a candidate only once the model has fired its parent.
	fireModel := func(end int64) ([2]int64, bool) {
		var pending []*modelEvent
		for _, ev := range model {
			if ev.state == 'p' && (ev.parent == nil || ev.parent.state == 'f') {
				pending = append(pending, ev)
			}
		}
		if len(pending) == 0 {
			return [2]int64{}, false
		}
		sort.Slice(pending, func(i, j int) bool {
			if pending[i].at != pending[j].at {
				return pending[i].at < pending[j].at
			}
			return pending[i].key < pending[j].key
		})
		ev := pending[0]
		if ev.at > end {
			return [2]int64{}, false
		}
		ev.state, modelNow = 'f', ev.at
		return [2]int64{int64(ev.seq), ev.at}, true
	}
	// expect checks that the clock fired exactly want since mark.
	expect := func(op string, mark int, want [][2]int64) {
		t.Helper()
		got := fired[mark:]
		if len(got) != len(want) {
			t.Fatalf("seed %d %s: clock fired %v, model %v", seed, op, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d %s: clock fired %v, model %v", seed, op, got, want)
			}
		}
	}
	for step := 0; step < ops; step++ {
		mark := len(fired)
		switch op := rng.Intn(14); {
		case op < 3: // at, possibly in the past or on an existing instant
			at := modelNow + int64(rng.Intn(5)-2)*int64(time.Second)
			schedule(nil, at, false, 0)
		case op < 5: // AfterEvent, possibly negative
			d := time.Duration(rng.Intn(4)-1) * time.Second
			schedule(nil, modelNow+int64(max(d, 0)), true, d)
		case op < 7 && len(model) > 0: // Stop any handle, live or not
			ev := model[rng.Intn(len(model))]
			if ev.state == 'f' {
				for _, other := range model {
					if other.state == 'p' && other.handle.slot == ev.handle.slot {
						cov.reusedStops++
					}
				}
			}
			want := ev.state == 'p'
			if got := ev.handle.Stop(); got != want {
				t.Fatalf("seed %d: Stop of event %d (state %c) = %v", seed, ev.seq, ev.state, got)
			}
			if want {
				ev.state = 's'
			}
		case op < 9: // Step
			ran := c.Step()
			var want [][2]int64
			if ev, ok := fireModel(1<<62 - 1); ok {
				want = append(want, ev)
			}
			if ran != (len(want) == 1) {
				t.Fatalf("seed %d: Step ran=%v, model %v", seed, ran, want)
			}
			expect("Step", mark, want)
		case op < 10: // Drain up to three events, or all of them
			limit := rng.Intn(4)
			n := c.Drain(limit)
			var want [][2]int64
			for limit == 0 || len(want) < limit {
				ev, ok := fireModel(1<<62 - 1)
				if !ok {
					break
				}
				want = append(want, ev)
			}
			if n != len(want) {
				t.Fatalf("seed %d: Drain(%d) ran %d, model %d", seed, limit, n, len(want))
			}
			expect("Drain", mark, want)
		case op < 12: // AfterEvent from more repeating delays than there are rings
			d := time.Duration(1+rng.Intn(maxRings+4)) * 250 * time.Millisecond
			schedule(nil, modelNow+int64(d), true, d)
		case op < 13: // a delivery, often on a ring timer's instant
			at := modelNow + int64(rng.Intn(13))*int64(250*time.Millisecond)
			deliver(at, Endpoint{Addr: iputil.Addr(1 + rng.Intn(3)), Port: 1})
		default: // RunUntil a point up to 3 s ahead
			end := modelNow + int64(rng.Intn(4))*int64(time.Second)
			n := c.RunUntil(Epoch.Add(time.Duration(end)))
			var want [][2]int64
			for {
				ev, ok := fireModel(end)
				if !ok {
					break
				}
				want = append(want, ev)
			}
			if n != len(want) {
				t.Fatalf("seed %d: RunUntil ran %d, model %d", seed, n, len(want))
			}
			expect("RunUntil", mark, want)
			modelNow = max(modelNow, end)
			heap, ring := stoppedHeads(c)
			if heap || ring {
				cov.stoppedTops++
			}
			if ring {
				cov.stoppedRingTops++
			}
		}
		if got := c.Now().Sub(Epoch); int64(got) != modelNow {
			t.Fatalf("seed %d step %d: Now = %v, model %v", seed, step, got, time.Duration(modelNow))
		}
		live := 0
		for _, ev := range model {
			if ev.state == 'p' {
				live++
			}
		}
		if c.Pending() != live {
			t.Fatalf("seed %d step %d: Pending = %d, model %d", seed, step, c.Pending(), live)
		}
	}
	return cov
}

// warmPair returns a network with two bound sockets, a handler on the
// second, and one datagram already delivered so every pool is warm.
func warmPair(tb testing.TB) (*Network, Socket, Endpoint) {
	n, err := NewNetwork(NewClock(), Config{LatencyBase: 10 * time.Millisecond, LatencyJitter: time.Millisecond, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	src, err := n.Listen(Endpoint{Addr: 1, Port: 1})
	if err != nil {
		tb.Fatal(err)
	}
	to := Endpoint{Addr: 2, Port: 2}
	dst, err := n.Listen(to)
	if err != nil {
		tb.Fatal(err)
	}
	dst.SetHandler(func(Endpoint, []byte) {})
	src.Send(to, []byte("warm"))
	n.Clock().Drain(0)
	return n, src, to
}

// TestEventLoopAllocs pins the event loop's allocations: a timer costs
// none once the pools are warm, and a datagram only the fabric's copy of
// its payload, also when it leaves or enters through a NAT.
func TestEventLoopAllocs(t *testing.T) {
	c := NewClock()
	nop := fn(func() {})
	c.AfterEvent(time.Second, nop, 0)
	c.Step()
	if got := testing.AllocsPerRun(100, func() {
		c.AfterEvent(time.Second, nop, 0)
		c.Step()
	}); got != 0 {
		t.Errorf("warm AfterEvent+Step: %v allocs, want 0", got)
	}
	n, src, to := warmPair(t)
	payload := []byte("d1:rd2:id20:SSSSSSSSSSSSSSSSSSSSe1:t2:cc1:y1:re")
	if got := testing.AllocsPerRun(100, func() {
		src.Send(to, payload)
		n.Clock().Step()
	}); got != 1 {
		t.Errorf("warm send+deliver: %v allocs, want 1 (the payload copy)", got)
	}

	// A NAT round trip: an address-restricted internal socket sends, the
	// public peer replies, and the reply crosses NAT.inbound back in.
	nat, err := NewNAT(n, NATConfig{PublicAddr: 3, Filtering: AddressRestricted})
	if err != nil {
		t.Fatal(err)
	}
	inside, err := nat.Listen(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	replies := 0
	inside.SetHandler(func(Endpoint, []byte) { replies++ })
	peer, err := n.Listen(Endpoint{Addr: 4, Port: 4})
	if err != nil {
		t.Fatal(err)
	}
	peer.SetHandler(func(from Endpoint, p []byte) { peer.Send(from, p) })
	roundTrip := func() {
		inside.Send(Endpoint{Addr: 4, Port: 4}, payload)
		n.Clock().Drain(0)
	}
	roundTrip()
	if got := testing.AllocsPerRun(100, roundTrip); got != 2 {
		t.Errorf("warm NAT round trip: %v allocs, want 2 (the payload copies)", got)
	}
	if replies != 102 {
		t.Errorf("NAT round trips delivered %d replies, want 102", replies)
	}
}

func BenchmarkClockAfterStep(b *testing.B) {
	c := NewClock()
	nop := fn(func() {})
	// A standing backlog keeps the heap as deep as a crawl's.
	for i := 0; i < 4096; i++ {
		c.AfterEvent(time.Duration(i)*time.Hour, nop, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AfterEvent(time.Millisecond, nop, 0)
		c.Step()
	}
}

func BenchmarkTransmitDeliver(b *testing.B) {
	n, src, to := warmPair(b)
	payload := []byte("d1:rd2:id20:SSSSSSSSSSSSSSSSSSSSe1:t2:cc1:y1:re")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Send(to, payload)
		n.Clock().Step()
	}
}
