package crawler

import (
	"testing"

	"github.com/reuseblock/reuseblock/internal/dht"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

func txTo(id uint64, ep netsim.Endpoint, stopped *int) Tx {
	return Tx{ID: id, To: ep, Timer: dht.StopFunc(func() bool { *stopped++; return true })}
}

func TestTxManagerRegisterResolve(t *testing.T) {
	m := NewTxManager(4)
	ep := netsim.Endpoint{Addr: 0x0a000001, Port: 6881}
	var stopped int
	m.Register(txTo(1, ep, &stopped))
	m.Register(txTo(2, ep, &stopped))

	if got := m.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}
	if got := m.Outstanding(ep); got != 2 {
		t.Fatalf("Outstanding = %d, want 2 (two concurrent queries to one node)", got)
	}
	if tx, ok := m.Get(1); !ok || tx.ID != 1 {
		t.Fatalf("Get(1) = %v, %v", tx, ok)
	}

	tx, ok := m.Resolve(1)
	if !ok || tx.To != ep {
		t.Fatalf("Resolve(1) = %v, %v", tx, ok)
	}
	if stopped != 1 {
		t.Fatalf("Resolve did not cancel the deadline: stopped = %d", stopped)
	}
	if m.InFlight() != 1 || m.Outstanding(ep) != 1 {
		t.Fatalf("after resolve: inflight %d outstanding %d, want 1/1", m.InFlight(), m.Outstanding(ep))
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
	var stopped int
	m.Register(txTo(1, ep, &stopped))

	tx, ok := m.Fail(1)
	if !ok || tx.To != ep {
		t.Fatalf("Fail(1) = %v, %v", tx, ok)
	}
	if stopped != 0 {
		t.Fatal("Fail must not Stop: the deadline timer already fired")
	}
	if m.InFlight() != 0 || m.Outstanding(ep) != 0 {
		t.Fatalf("failed tx still accounted: inflight %d outstanding %d", m.InFlight(), m.Outstanding(ep))
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
	var stopped int
	for i := 0; i < 5; i++ {
		id := uint64(i)
		m.Register(txTo(id, ep, &stopped))
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
	var stopped int
	m.Register(txTo(1, ep1, &stopped))
	m.Register(txTo(2, ep2, &stopped))
	m.Register(txTo(3, ep2, &stopped))
	m.Fail(3) // seed the late window before cancelling

	m.CancelAll()
	if stopped != 2 {
		t.Fatalf("CancelAll stopped %d deadlines, want 2", stopped)
	}
	if m.InFlight() != 0 || m.Outstanding(ep1) != 0 || m.Outstanding(ep2) != 0 {
		t.Fatalf("CancelAll left accounting: inflight %d", m.InFlight())
	}
	// The late window survives shutdown so stragglers still count.
	if to, ok := m.ResolveLate(3); !ok || to != ep2 {
		t.Fatalf("late window lost across CancelAll: %v, %v", to, ok)
	}
	// The manager stays usable after CancelAll.
	m.Register(txTo(4, ep1, &stopped))
	if m.InFlight() != 1 {
		t.Fatalf("manager unusable after CancelAll: inflight %d", m.InFlight())
	}
}

// TestTxManagerReusesRecords: a finished transaction's record, Data buffer
// included, carries the next one, and the record holds its own copy of the
// query bytes, so the sender may reuse its buffer.
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
	second := m.Register(Tx{ID: 2, To: ep, Data: []byte("second")})
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
