package crawler

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

// TestAddrTablePortLists interleaves port insertions over several addresses,
// so lists stay inline, spill into the slab and move within it as they
// grow, and checks every list against a map of the ports inserted: sorted,
// complete, and each slot naming its own endpoint.
func TestAddrTablePortLists(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := newAddrTable()
	want := make(map[iputil.Addr]map[uint16]uint32)
	for i := 0; i < 3000; i++ {
		// Address k gets up to 8k distinct ports, so list lengths span
		// 1 (inline) to 64 (four slab moves).
		k := rng.Intn(9)
		ep := netsim.Endpoint{Addr: iputil.Addr(100 + k), Port: uint16(rng.Intn(8*k + 1))}
		s := tab.slotFor(ep)
		if want[ep.Addr] == nil {
			want[ep.Addr] = make(map[uint16]uint32)
		}
		if prev, ok := want[ep.Addr][ep.Port]; ok && prev != s {
			t.Fatalf("%v: slot %d, earlier %d", ep, s, prev)
		}
		want[ep.Addr][ep.Port] = s
	}
	for a, ports := range want {
		h := tab.index[a]
		var got []uint16
		for _, s := range tab.portsOf(h) {
			ep := tab.endpoint(s)
			if ep.Addr != a || ports[ep.Port] != s {
				t.Fatalf("slot %d of %v is %v", s, a, ep)
			}
			if found, ok := tab.lookup(ep); !ok || found != s {
				t.Fatalf("lookup(%v) = %d, %v; want %d", ep, found, ok, s)
			}
			got = append(got, ep.Port)
		}
		if !slices.IsSorted(got) || len(got) != len(ports) {
			t.Fatalf("%v: ports %v, want the %d inserted, sorted", a, got, len(ports))
		}
	}
	if _, ok := tab.lookup(netsim.Endpoint{Addr: 100, Port: 1}); ok {
		t.Fatal("lookup found a port never inserted")
	}
}
