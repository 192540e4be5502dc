package dht

import (
	"math/rand"
	"testing"

	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

func TestSplitmixSourceDeterministic(t *testing.T) {
	a := newSplitmixSource(42)
	b := newSplitmixSource(42)
	for i := 0; i < 200; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: same seed diverged: %d != %d", i, av, bv)
		}
	}
	c := newSplitmixSource(43)
	if a.Uint64() == c.Uint64() {
		t.Error("seeds 42 and 43 produced the same next value")
	}
}

func TestSplitmixSourceSeedResets(t *testing.T) {
	s := newSplitmixSource(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = s.Uint64()
	}
	s.Seed(7)
	for i := range first {
		if got := s.Uint64(); got != first[i] {
			t.Fatalf("after re-seed, step %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestSplitmixSourceInt63(t *testing.T) {
	s := newSplitmixSource(1)
	for i := 0; i < 1000; i++ {
		if v := s.Int63(); v < 0 {
			t.Fatalf("Int63 returned negative %d", v)
		}
	}
	// The source must satisfy math/rand's contract well enough to drive a
	// Rand — the exact shape every compact node depends on.
	r := rand.New(newSplitmixSource(1))
	if a, b := r.Intn(1000), r.Intn(1000); a == b {
		// Collisions are possible but a deterministic pair is fine to pin.
		t.Logf("consecutive Intn values collided (%d); acceptable", a)
	}
}

func TestNodeArenaAllocation(t *testing.T) {
	var a NodeArena
	if a.Len() != 0 {
		t.Fatalf("fresh arena Len = %d", a.Len())
	}
	// Cross two chunk boundaries and verify pointer stability throughout.
	const n = 2*arenaChunk + 5
	ptrs := make([]*Node, n)
	for i := range ptrs {
		ptrs[i] = a.alloc()
		ptrs[i].stats.QueriesSent = int64(i) + 1
	}
	if a.Len() != n {
		t.Fatalf("Len = %d, want %d", a.Len(), n)
	}
	for i, p := range ptrs {
		if p.stats.QueriesSent != int64(i)+1 {
			t.Fatalf("slot %d overwritten: QueriesSent = %d", i, p.stats.QueriesSent)
		}
	}
}

func TestNodeArenaNewNodeCompact(t *testing.T) {
	w := newSimWorld(t)
	var arena NodeArena
	mk := func(addr string, seed int64) *Node {
		sock, err := w.net.Listen(netsim.Endpoint{Addr: iputil.MustParseAddr(addr), Port: 6881})
		if err != nil {
			t.Fatal(err)
		}
		return arena.NewNode(sock, SimClock(w.clock), Config{
			PrivateIP:  iputil.MustParseAddr(addr),
			IDSeed:     uint64(seed),
			Seed:       seed,
			CompactRNG: true,
			Version:    "RB01",
		})
	}
	a := mk("10.1.0.1", 1)
	b := mk("10.1.0.2", 2)
	if arena.Len() != 2 {
		t.Fatalf("arena Len = %d, want 2", arena.Len())
	}
	var got *krpc.Message
	a.Ping(endpointOf(b), func(m *krpc.Message, err error) {
		if err != nil {
			t.Errorf("ping error: %v", err)
		}
		got = m
	})
	w.clock.Drain(0)
	if got == nil || got.ID != b.ID() {
		t.Fatalf("compact arena node did not answer ping: %+v", got)
	}

	// Compact RNG must be a per-node choice with deterministic identity:
	// the same config on a fresh arena yields the same node ID.
	var arena2 NodeArena
	w2 := newSimWorld(t)
	sock, err := w2.net.Listen(netsim.Endpoint{Addr: iputil.MustParseAddr("10.1.0.1"), Port: 6881})
	if err != nil {
		t.Fatal(err)
	}
	a2 := arena2.NewNode(sock, SimClock(w2.clock), Config{
		PrivateIP:  iputil.MustParseAddr("10.1.0.1"),
		IDSeed:     1,
		Seed:       1,
		CompactRNG: true,
		Version:    "RB01",
	})
	if a2.ID() != a.ID() {
		t.Errorf("compact node identity not deterministic: %v != %v", a2.ID(), a.ID())
	}
}

func TestClosestAndTimeoutError(t *testing.T) {
	w := newSimWorld(t)
	n := w.newNode(t, "10.2.0.1", 6881, 1)
	for i := byte(2); i < 12; i++ {
		n.AddNode(krpc.NodeInfo{
			ID:   krpc.GenerateNodeID(iputil.MustParseAddr("10.2.0.1"), uint64(i)),
			Addr: iputil.AddrFrom4(10, 2, 0, i),
			Port: 6881,
		})
	}
	got := n.Closest(n.ID(), 4)
	if len(got) != 4 {
		t.Fatalf("Closest returned %d nodes, want 4", len(got))
	}
	if ErrTimeout.Error() == "" {
		t.Error("ErrTimeout has empty message")
	}
}
