package netsim

import (
	"math/rand"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

func newTestNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := NewNetwork(NewClock(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func ep(addr string, port uint16) Endpoint {
	return Endpoint{iputil.MustParseAddr(addr), port}
}

func TestListenAndDeliver(t *testing.T) {
	n := newTestNet(t, Config{LatencyBase: 10 * time.Millisecond})
	a, err := n.Listen(ep("10.0.0.1", 1000))
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Listen(ep("10.0.0.2", 2000))
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	var from Endpoint
	b.SetHandler(func(f Endpoint, p []byte) { from, got = f, p })
	a.Send(ep("10.0.0.2", 2000), []byte("hello"))
	if got != nil {
		t.Error("delivery before clock advanced")
	}
	n.Clock().Drain(0)
	if string(got) != "hello" {
		t.Fatalf("payload = %q", got)
	}
	if from != ep("10.0.0.1", 1000) {
		t.Errorf("from = %v", from)
	}
	st := n.Stats()
	if st.Sent != 1 || st.Delivered != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDoubleBind(t *testing.T) {
	n := newTestNet(t, Config{})
	if _, err := n.Listen(ep("10.0.0.1", 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen(ep("10.0.0.1", 1000)); err == nil {
		t.Error("double bind should fail")
	}
}

func TestCloseUnbinds(t *testing.T) {
	n := newTestNet(t, Config{})
	s, _ := n.Listen(ep("10.0.0.1", 1000))
	s.Close()
	if n.Bound(ep("10.0.0.1", 1000)) {
		t.Error("closed endpoint still bound")
	}
	if _, err := n.Listen(ep("10.0.0.1", 1000)); err != nil {
		t.Errorf("rebind after close: %v", err)
	}
}

func TestNoRouteCounted(t *testing.T) {
	n := newTestNet(t, Config{})
	a, _ := n.Listen(ep("10.0.0.1", 1000))
	a.Send(ep("10.9.9.9", 1), []byte("x"))
	n.Clock().Drain(0)
	if st := n.Stats(); st.NoRoute != 1 || st.Delivered != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLossIsApplied(t *testing.T) {
	n := newTestNet(t, Config{Loss: 0.5, Seed: 1})
	a, _ := n.Listen(ep("10.0.0.1", 1))
	b, _ := n.Listen(ep("10.0.0.2", 2))
	received := 0
	b.SetHandler(func(Endpoint, []byte) { received++ })
	const total = 2000
	for i := 0; i < total; i++ {
		a.Send(ep("10.0.0.2", 2), []byte{1})
	}
	n.Clock().Drain(0)
	if received < total*4/10 || received > total*6/10 {
		t.Errorf("received %d of %d with 50%% loss", received, total)
	}
	st := n.Stats()
	if st.Dropped+st.Delivered != total {
		t.Errorf("dropped %d + delivered %d != %d", st.Dropped, st.Delivered, total)
	}
}

func TestLatencyOrdering(t *testing.T) {
	n := newTestNet(t, Config{LatencyBase: 20 * time.Millisecond})
	a, _ := n.Listen(ep("10.0.0.1", 1))
	b, _ := n.Listen(ep("10.0.0.2", 2))
	var arrivals []time.Time
	b.SetHandler(func(Endpoint, []byte) { arrivals = append(arrivals, n.Clock().Now()) })
	a.Send(ep("10.0.0.2", 2), []byte{1})
	n.Clock().RunFor(time.Second)
	if len(arrivals) != 1 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if got := arrivals[0].Sub(Epoch); got != 20*time.Millisecond {
		t.Errorf("arrival at +%v, want +20ms", got)
	}
}

func TestPayloadIsolation(t *testing.T) {
	n := newTestNet(t, Config{})
	a, _ := n.Listen(ep("10.0.0.1", 1))
	b, _ := n.Listen(ep("10.0.0.2", 2))
	var got []byte
	b.SetHandler(func(_ Endpoint, p []byte) { got = p })
	buf := []byte("abc")
	a.Send(ep("10.0.0.2", 2), buf)
	buf[0] = 'X' // sender reuses its buffer before delivery
	n.Clock().Drain(0)
	if string(got) != "abc" {
		t.Errorf("payload corrupted by sender buffer reuse: %q", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		n, err := NewNetwork(NewClock(), Config{Loss: 0.3, LatencyBase: time.Millisecond, LatencyJitter: 5 * time.Millisecond, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		a, _ := n.Listen(ep("10.0.0.1", 1))
		b, _ := n.Listen(ep("10.0.0.2", 2))
		b.SetHandler(func(f Endpoint, p []byte) {
			if len(p) < 10 {
				b.Send(f, append(p, 'x'))
			}
		})
		a.SetHandler(func(f Endpoint, p []byte) {
			if len(p) < 10 {
				a.Send(f, append(p, 'y'))
			}
		})
		for i := 0; i < 50; i++ {
			a.Send(ep("10.0.0.2", 2), []byte{byte(i)})
		}
		n.Clock().Drain(0)
		return n.Stats()
	}
	s1, s2 := run(), run()
	if s1 != s2 {
		t.Errorf("non-deterministic: %+v vs %+v", s1, s2)
	}
}

func TestInvalidConfigErrors(t *testing.T) {
	bad := []Config{
		{Loss: 1},
		{Loss: -0.1},
		{LatencyBase: -time.Second},
		{LatencyJitter: -time.Second},
	}
	for _, cfg := range bad {
		if _, err := NewNetwork(NewClock(), cfg); err == nil {
			t.Errorf("NewNetwork(%+v) accepted an invalid config", cfg)
		}
	}
	if _, err := NewNetwork(NewClock(), Config{Loss: 0.99}); err != nil {
		t.Errorf("NewNetwork rejected a valid config: %v", err)
	}
}

func TestTracer(t *testing.T) {
	var events []TraceEvent
	clock := NewClock()
	n, err := NewNetwork(clock, Config{
		Trace: func(ev TraceEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := n.Listen(ep("10.0.0.1", 1))
	b, _ := n.Listen(ep("10.0.0.2", 2))
	b.SetHandler(func(Endpoint, []byte) {})
	a.Send(ep("10.0.0.2", 2), []byte("abc"))
	a.Send(ep("10.9.9.9", 9), []byte("xy"))
	clock.Drain(0)
	var kinds []TraceKind
	for _, ev := range events {
		kinds = append(kinds, ev.Kind)
	}
	want := []TraceKind{TraceSend, TraceSend, TraceDeliver, TraceNoRoute}
	if len(kinds) != len(want) {
		t.Fatalf("events = %c", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events = %c, want %c", kinds, want)
		}
	}
	if events[2].Size != 3 || events[2].From != ep("10.0.0.1", 1) {
		t.Errorf("deliver event = %+v", events[2])
	}
}

func TestTracerSeesDrops(t *testing.T) {
	drops, sends := 0, 0
	clock := NewClock()
	n, err := NewNetwork(clock, Config{
		Loss: 0.5, Seed: 3,
		Trace: func(ev TraceEvent) {
			switch ev.Kind {
			case TraceDrop:
				drops++
			case TraceSend:
				sends++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := n.Listen(ep("10.0.0.1", 1))
	b, _ := n.Listen(ep("10.0.0.2", 2))
	b.SetHandler(func(Endpoint, []byte) {})
	for i := 0; i < 400; i++ {
		a.Send(ep("10.0.0.2", 2), []byte{1})
	}
	clock.Drain(0)
	if sends != 400 {
		t.Errorf("sends = %d", sends)
	}
	if drops < 120 || drops > 280 {
		t.Errorf("drops = %d at 50%% loss", drops)
	}
	if int64(drops) != n.Stats().Dropped {
		t.Errorf("trace drops %d != stats %d", drops, n.Stats().Dropped)
	}
}

// TestFaultHooks: a fault hook can drop and rewrite datagrams, sees each
// datagram's arrival time and send sequence, drops are counted in
// FaultDropped and traced as TraceFaultDrop, and the conservation invariant
// extends to fault drops.
func TestFaultHooks(t *testing.T) {
	var kinds []TraceKind
	var seen []Datagram
	cfg := Config{
		LatencyBase: 5 * time.Millisecond,
		Trace:       func(ev TraceEvent) { kinds = append(kinds, ev.Kind) },
		Faults: func() FaultHook {
			return func(d Datagram) []byte {
				seen = append(seen, d)
				switch p := d.Payload; {
				case len(p) > 0 && (p[0] == 'D' || p[0] == 'X'):
					return nil
				case len(p) > 0 && p[0] == 'R':
					return []byte("rewritten")
				}
				return d.Payload
			}
		},
	}
	n := newTestNet(t, cfg)
	a, _ := n.Listen(ep("10.0.0.1", 1))
	b, _ := n.Listen(ep("10.0.0.2", 2))
	var got []string
	b.SetHandler(func(_ Endpoint, p []byte) { got = append(got, string(p)) })
	for _, payload := range []string{"Drop-me", "X-drop-me", "Rewrite", "pass"} {
		a.Send(ep("10.0.0.2", 2), []byte(payload))
	}
	n.Clock().Drain(0)
	if len(got) != 2 || got[0] != "rewritten" || got[1] != "pass" {
		t.Errorf("delivered = %q", got)
	}
	for i, d := range seen {
		if d.Seq != uint64(i) || d.At != 5*time.Millisecond || d.From != ep("10.0.0.1", 1) {
			t.Errorf("hook saw datagram %d as %+v", i, d)
		}
	}
	st := n.Stats()
	if st.FaultDropped != 2 {
		t.Errorf("FaultDropped = %d, want 2", st.FaultDropped)
	}
	if st.Sent != st.Delivered+st.Dropped+st.NoRoute+st.FaultDropped {
		t.Errorf("conservation violated with fault hooks: %+v", st)
	}
	faultDrops := 0
	for _, k := range kinds {
		if k == TraceFaultDrop {
			faultDrops++
		}
	}
	if faultDrops != 2 {
		t.Errorf("TraceFaultDrop events = %d, want 2", faultDrops)
	}
}

// TestConservationProperty: every sent datagram is eventually dropped,
// delivered, or unroutable — nothing is duplicated or lost in accounting.
func TestConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		clock := NewClock()
		n, err := NewNetwork(clock, Config{Loss: rng.Float64() * 0.9, Seed: rng.Int63()})
		if err != nil {
			t.Fatal(err)
		}
		var socks []Socket
		for i := 0; i < 5; i++ {
			s, err := n.Listen(ep("10.0.0."+string(rune('1'+i)), uint16(i+1)))
			if err != nil {
				t.Fatal(err)
			}
			s.SetHandler(func(Endpoint, []byte) {})
			socks = append(socks, s)
		}
		total := 0
		for i := 0; i < 300; i++ {
			src := socks[rng.Intn(len(socks))]
			dst := ep("10.0.0."+string(rune('1'+rng.Intn(7))), uint16(rng.Intn(7)+1))
			src.Send(dst, []byte{byte(i)})
			total++
		}
		clock.Drain(0)
		st := n.Stats()
		if st.Sent != int64(total) {
			t.Fatalf("Sent = %d, want %d", st.Sent, total)
		}
		if st.Dropped+st.Delivered+st.NoRoute != st.Sent {
			t.Fatalf("conservation violated: %+v", st)
		}
	}
}
