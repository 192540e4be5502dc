package dht

import (
	"testing"

	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

// newByzantineNode is newNode with the adversarial flag set.
func (w *simWorld) newByzantineNode(t *testing.T, addr string, port uint16, seed int64) *Node {
	t.Helper()
	sock, err := w.net.Listen(netsim.Endpoint{Addr: iputil.MustParseAddr(addr), Port: port})
	if err != nil {
		t.Fatal(err)
	}
	return NewNode(sock, w.clock, Config{
		PrivateIP: iputil.MustParseAddr(addr),
		IDSeed:    uint64(seed),
		Seed:      seed,
		Byzantine: true,
	})
}

func TestByzantineFindNodeFabricates(t *testing.T) {
	w := newSimWorld(t)
	server := w.newByzantineNode(t, "10.0.0.1", 6881, 1)
	// Give the server real table entries it should NOT reveal.
	real := map[krpc.NodeID]bool{}
	for i := 0; i < 10; i++ {
		var id krpc.NodeID
		id[0] = byte(i + 1)
		real[id] = true
		server.AddNode(krpc.NodeInfo{ID: id, Addr: iputil.AddrFrom4(10, 0, 1, byte(i+1)), Port: 6881})
	}
	m := w.ask(t, endpointOf(server), krpc.NewFindNode([]byte("fn"), krpc.NodeID{0xff}, krpc.NodeID{}))
	if m == nil || m.Kind != krpc.KindResponse {
		t.Fatalf("find_node reply = %+v", m)
	}
	got := m.Nodes
	if len(got) != BucketSize {
		t.Fatalf("got %d fabricated nodes, want %d", len(got), BucketSize)
	}
	for _, info := range got {
		if real[info.ID] {
			t.Fatalf("byzantine response leaked real table entry %v", info.ID)
		}
	}
	// Pings stay honest: the node keeps itself reachable.
	if pong := w.ask(t, endpointOf(server), krpc.NewPing([]byte("pp"), krpc.NodeID{0xff})); pong == nil ||
		pong.Kind != krpc.KindResponse || pong.ID != server.ID() {
		t.Fatal("byzantine node did not answer ping honestly")
	}
}

func TestByzantineDeterministic(t *testing.T) {
	fabricate := func() []krpc.NodeInfo {
		w := newSimWorld(t)
		server := w.newByzantineNode(t, "10.0.0.1", 6881, 9)
		if m := w.ask(t, endpointOf(server), krpc.NewFindNode([]byte("fn"), krpc.NodeID{0xff}, krpc.NodeID{})); m != nil {
			return m.Nodes
		}
		return nil
	}
	a, b := fabricate(), fabricate()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("fabricated %d vs %d nodes", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fabrication diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
