package dht

import (
	"math"
	"math/rand"
	"testing"

	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

// splitmixSource is splitmix64 as a math/rand.Source64: the oracle the
// node's by-value generator is checked against, draw for draw, through
// rand.New.
type splitmixSource struct {
	state uint64
}

func newSplitmixSource(seed int64) *splitmixSource {
	return &splitmixSource{state: uint64(seed)}
}

func (s *splitmixSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmixSource) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

func (s *splitmixSource) Seed(seed int64) {
	s.state = uint64(seed)
}

// TestSplitmixMatchesRand draws 10K values per seed from the by-value
// generator and from rand.New over splitmixSource, interleaving Uint32,
// Intn at powers of two and not (rejection sampling included) and Reads
// of every length up to 20 bytes, so Read's carried bytes cross the other
// calls. Every draw must agree.
func TestSplitmixMatchesRand(t *testing.T) {
	bounds := []int{1, 2, 3, 7, 64, 1000, 64000, 1 << 30, 1<<30 + 1, 1<<31 - 1}
	for _, seed := range []int64{0, 1, 7, 7919, -1, 1 << 40, -8386 * 7919} {
		got := splitmix{state: uint64(seed)}
		want := rand.New(newSplitmixSource(seed))
		pick := rand.New(rand.NewSource(seed)) // chooses the call, not its value
		for i := 0; i < 10000; i++ {
			switch pick.Intn(3) {
			case 0:
				if g, w := got.Uint32(), want.Uint32(); g != w {
					t.Fatalf("seed %d draw %d: Uint32 = %d, want %d", seed, i, g, w)
				}
			case 1:
				n := bounds[pick.Intn(len(bounds))]
				if g, w := got.Intn(n), want.Intn(n); g != w {
					t.Fatalf("seed %d draw %d: Intn(%d) = %d, want %d", seed, i, n, g, w)
				}
			default:
				n := pick.Intn(21)
				g, w := make([]byte, n), make([]byte, n)
				got.Read(g)
				want.Read(w)
				if string(g) != string(w) {
					t.Fatalf("seed %d draw %d: Read(%d) = %x, want %x", seed, i, n, g, w)
				}
			}
		}
	}
}

func TestSplitmixIntnRejectsOutOfRange(t *testing.T) {
	cases := []int{0, -1}
	if math.MaxInt > math.MaxInt32 {
		cases = append(cases, math.MaxInt)
	}
	for _, n := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			var r splitmix
			r.Intn(n)
		}()
	}
}

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
	// Rand, the shape the by-value generator is checked against.
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

func TestNodeArenaNewNode(t *testing.T) {
	w := newSimWorld(t)
	var arena NodeArena
	mk := func(addr string, seed int64) *Node {
		sock, err := w.net.Listen(netsim.Endpoint{Addr: iputil.MustParseAddr(addr), Port: 6881})
		if err != nil {
			t.Fatal(err)
		}
		return arena.NewNode(sock, w.clock, Config{
			PrivateIP: iputil.MustParseAddr(addr),
			IDSeed:    uint64(seed),
			Seed:      seed,
			Version:   "RB01",
		})
	}
	a := mk("10.1.0.1", 1)
	b := mk("10.1.0.2", 2)
	if arena.Len() != 2 {
		t.Fatalf("arena Len = %d, want 2", arena.Len())
	}
	a.Ping(endpointOf(b))
	w.clock.Drain(0)
	if s := a.Stats(); s.ResponsesReceived != 1 || !learned(a, b.ID()) {
		t.Fatalf("arena node did not answer ping: stats %+v, table %d", s, a.TableSize())
	}

	// Identity is deterministic: the same config on a fresh arena yields
	// the same node ID.
	var arena2 NodeArena
	w2 := newSimWorld(t)
	sock, err := w2.net.Listen(netsim.Endpoint{Addr: iputil.MustParseAddr("10.1.0.1"), Port: 6881})
	if err != nil {
		t.Fatal(err)
	}
	a2 := arena2.NewNode(sock, w2.clock, Config{
		PrivateIP: iputil.MustParseAddr("10.1.0.1"),
		IDSeed:    1,
		Seed:      1,
		Version:   "RB01",
	})
	if a2.ID() != a.ID() {
		t.Errorf("arena node identity not deterministic: %v != %v", a2.ID(), a.ID())
	}
}

// TestNodeArenaNewNodeAllocs bounds what one arena node costs the heap
// beyond its arena slot: the socket handler's method value and nothing
// else, since the generator and the routing table live inside the Node.
func TestNodeArenaNewNodeAllocs(t *testing.T) {
	w := newSimWorld(t)
	sock, err := w.net.Listen(netsim.Endpoint{Addr: iputil.MustParseAddr("10.3.0.1"), Port: 6881})
	if err != nil {
		t.Fatal(err)
	}
	var arena NodeArena
	arena.alloc() // the first chunk is not the node's cost
	seed := int64(0)
	allocs := testing.AllocsPerRun(500, func() {
		seed++
		arena.NewNode(sock, w.clock, Config{IDSeed: uint64(seed), Seed: seed, Version: "RB01"})
	})
	if allocs > 1 {
		t.Errorf("NodeArena.NewNode allocates %.0f times per node, want at most 1", allocs)
	}
}

func TestClosestReturnsK(t *testing.T) {
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
}
