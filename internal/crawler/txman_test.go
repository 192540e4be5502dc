package crawler

import (
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/netsim"
)

// inFlight counts the manager's outstanding transactions.
func inFlight(m *TxManager) int {
	n := 0
	for _, e := range m.ring {
		if e.live {
			n++
		}
	}
	return n
}

// nopTarget is a timer target that does nothing.
type nopTarget struct{}

func (nopTarget) Fire(uint64) {}

// txTo returns a transaction to ep whose deadline is armed on clock.
func txTo(clock *netsim.Clock, id uint64, ep netsim.Endpoint) Tx {
	return Tx{ID: id, To: ep, Timer: clock.AfterEvent(time.Second, nopTarget{}, 0)}
}

func TestTxManagerRegisterResolve(t *testing.T) {
	m := NewTxManager(4)
	ep := netsim.Endpoint{Addr: 0x0a000001, Port: 6881}
	clock := netsim.NewClock()
	m.Register(txTo(clock, 1, ep))
	m.Register(txTo(clock, 2, ep))

	if got := inFlight(m); got != 2 {
		t.Fatalf("in flight = %d, want 2", got)
	}
	if tx, ok := m.Get(1); !ok || tx.ID != 1 {
		t.Fatalf("Get(1) = %v, %v", tx, ok)
	}

	tx, ok := m.Resolve(1)
	if !ok || tx.To != ep {
		t.Fatalf("Resolve(1) = %v, %v", tx, ok)
	}
	if got := clock.Pending(); got != 1 {
		t.Fatalf("Resolve did not cancel the deadline: %d timers pending, want 1", got)
	}
	if inFlight(m) != 1 {
		t.Fatalf("after resolve: inflight %d, want 1", inFlight(m))
	}
	if _, ok := m.Resolve(1); ok {
		t.Fatal("double Resolve succeeded")
	}
	if _, ok := m.Resolve(99); ok {
		t.Fatal("Resolve of unknown tx succeeded")
	}
}

func TestTxManagerFailFeedsLateWindow(t *testing.T) {
	m := NewTxManager(4)
	ep := netsim.Endpoint{Addr: 0x0a000002, Port: 6881}
	clock := netsim.NewClock()
	m.Register(txTo(clock, 1, ep))

	tx, ok := m.Fail(1)
	if !ok || tx.To != ep {
		t.Fatalf("Fail(1) = %v, %v", tx, ok)
	}
	if clock.Pending() != 1 {
		t.Fatal("Fail must not Stop: the deadline timer already fired")
	}
	if inFlight(m) != 0 {
		t.Fatalf("failed tx still accounted: inflight %d", inFlight(m))
	}

	to, ok := m.ResolveLate(1)
	if !ok || to != ep {
		t.Fatalf("ResolveLate(1) = %v, %v", to, ok)
	}
	if _, ok := m.ResolveLate(1); ok {
		t.Fatal("a transaction resolved late twice")
	}
	if _, ok := m.Fail(1); ok {
		t.Fatal("Fail of already-failed tx succeeded")
	}
}

// TestTxManagerLateWindowFIFO: the late window is bounded and forgets the
// oldest timed-out transaction first.
func TestTxManagerLateWindowFIFO(t *testing.T) {
	m := NewTxManager(3)
	ep := netsim.Endpoint{Addr: 0x0a000003, Port: 6881}
	clock := netsim.NewClock()
	for i := 0; i < 5; i++ {
		id := uint64(i)
		m.Register(txTo(clock, id, ep))
		m.Fail(id)
	}
	// Window holds 3; transactions 0 and 1 were evicted.
	for _, id := range []uint64{0, 1} {
		if _, ok := m.ResolveLate(id); ok {
			t.Fatalf("evicted tx %d still in late window", id)
		}
	}
	for _, id := range []uint64{2, 3, 4} {
		if to, ok := m.ResolveLate(id); !ok || to != ep {
			t.Fatalf("ResolveLate(%d) = %v, %v", id, to, ok)
		}
	}
}

func TestTxManagerDefaultLateWindow(t *testing.T) {
	m := NewTxManager(0)
	if m.lateMax != lateWindowMax {
		t.Fatalf("lateMax = %d, want default %d", m.lateMax, lateWindowMax)
	}
}

func TestTxManagerCancelAll(t *testing.T) {
	m := NewTxManager(4)
	ep1 := netsim.Endpoint{Addr: 0x0a000004, Port: 6881}
	ep2 := netsim.Endpoint{Addr: 0x0a000005, Port: 6881}
	clock := netsim.NewClock()
	m.Register(txTo(clock, 1, ep1))
	m.Register(txTo(clock, 2, ep2))
	m.Register(txTo(clock, 3, ep2))
	m.Fail(3) // seed the late window before cancelling

	m.CancelAll()
	if got := clock.Pending(); got != 1 {
		t.Fatalf("CancelAll left %d timers pending, want 1 (the failed transaction's)", got)
	}
	if inFlight(m) != 0 {
		t.Fatalf("CancelAll left accounting: inflight %d", inFlight(m))
	}
	// The late window survives shutdown so stragglers still count.
	if to, ok := m.ResolveLate(3); !ok || to != ep2 {
		t.Fatalf("late window lost across CancelAll: %v, %v", to, ok)
	}
	// The manager stays usable after CancelAll.
	m.Register(txTo(clock, 4, ep1))
	if inFlight(m) != 1 {
		t.Fatalf("manager unusable after CancelAll: inflight %d", inFlight(m))
	}
}

// TestTxManagerReusesRecords: a finished transaction's record, Data buffer
// included, carries the next one to land on its ring entry, and the record
// holds its own copy of the query bytes, so the sender may reuse its buffer.
func TestTxManagerReusesRecords(t *testing.T) {
	m := NewTxManager(4)
	ep := netsim.Endpoint{Addr: 0x0a000006, Port: 6881}
	buf := []byte("first query")
	first := m.Register(Tx{ID: 1, To: ep, Data: buf})
	copy(buf, "XXXXX")
	if string(first.Data) != "first query" {
		t.Fatalf("record Data = %q, want its own copy of the query", first.Data)
	}
	if done, ok := m.Resolve(1); !ok || done.To != ep || done.Data != nil {
		t.Fatalf("Resolve(1) = %+v, %v; want the record's fields without Data", done, ok)
	}
	second := m.Register(Tx{ID: 1 + uint64(len(m.ring)), To: ep, Data: []byte("second")})
	if second != first || string(second.Data) != "second" {
		t.Fatalf("second record %p (%q), want the first's %p reused", second, second.Data, first)
	}
	data := []byte("a query of usual size")
	allocs := testing.AllocsPerRun(100, func() {
		m.Register(Tx{ID: 3, To: ep, Data: data})
		m.Resolve(3)
	})
	if allocs != 0 {
		t.Errorf("warm Register and Resolve: %v allocs, want 0", allocs)
	}
}

// TestTxManagerRingGrows: IDs that land on a live entry grow the ring, and
// every outstanding transaction stays reachable across the growth.
func TestTxManagerRingGrows(t *testing.T) {
	m := NewTxManager(4)
	ep := netsim.Endpoint{Addr: 0x0a000007, Port: 6881}
	clock := netsim.NewClock()
	for id := uint64(1); id <= 1000; id++ {
		m.Register(txTo(clock, id, ep))
		if id%3 == 0 {
			m.Resolve(id - 1)
		}
	}
	// Two IDs a ring length apart need a larger ring.
	far := uint64(1000 + len(m.ring))
	m.Register(txTo(clock, far, ep))
	for id := uint64(1); id <= 1000; id++ {
		_, ok := m.Get(id)
		if want := id%3 != 2; ok != want {
			t.Fatalf("Get(%d) = %v, want %v", id, ok, want)
		}
	}
	if tx, ok := m.Get(far); !ok || tx.ID != far {
		t.Fatalf("Get(%d) = %v, %v", far, tx, ok)
	}
	if got, want := inFlight(m), 1000-333+1; got != want {
		t.Fatalf("in flight = %d, want %d", got, want)
	}
}
