package dht

import (
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

type simWorld struct {
	clock *netsim.Clock
	net   *netsim.Network
}

func newSimWorld(t *testing.T) *simWorld {
	t.Helper()
	clock := netsim.NewClock()
	net, err := netsim.NewNetwork(clock, netsim.Config{LatencyBase: 5 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return &simWorld{clock: clock, net: net}
}

func (w *simWorld) newNode(t *testing.T, addr string, port uint16, seed int64) *Node {
	t.Helper()
	sock, err := w.net.Listen(netsim.Endpoint{Addr: iputil.MustParseAddr(addr), Port: port})
	if err != nil {
		t.Fatal(err)
	}
	return NewNode(sock, SimClock(w.clock), Config{
		PrivateIP: iputil.MustParseAddr(addr),
		IDSeed:    uint64(seed),
		Seed:      seed,
		Version:   "RB01",
	})
}

func endpointOf(n *Node) netsim.Endpoint {
	ep, _ := n.sock.PublicEndpoint()
	return ep
}

func TestPingPong(t *testing.T) {
	w := newSimWorld(t)
	a := w.newNode(t, "10.0.0.1", 6881, 1)
	b := w.newNode(t, "10.0.0.2", 6881, 2)
	var got *krpc.Message
	a.Ping(endpointOf(b), func(m *krpc.Message, err error) {
		if err != nil {
			t.Errorf("ping error: %v", err)
		}
		got = m
	})
	w.clock.Drain(0)
	if got == nil || got.ID != b.ID() {
		t.Fatalf("pong = %+v", got)
	}
	if got.Version != "RB01" {
		t.Errorf("version = %q", got.Version)
	}
	// b learned a from the query.
	if b.TableSize() != 1 {
		t.Errorf("b table = %d", b.TableSize())
	}
}

func TestPingTimeout(t *testing.T) {
	w := newSimWorld(t)
	a := w.newNode(t, "10.0.0.1", 6881, 1)
	var gotErr error
	called := false
	a.Ping(netsim.Endpoint{Addr: iputil.MustParseAddr("10.9.9.9"), Port: 1}, func(m *krpc.Message, err error) {
		called, gotErr = true, err
	})
	w.clock.Drain(0)
	if !called || gotErr != ErrTimeout {
		t.Fatalf("timeout callback: called=%v err=%v", called, gotErr)
	}
	if a.Stats().Timeouts != 1 {
		t.Errorf("Timeouts = %d", a.Stats().Timeouts)
	}
}

func TestFindNodeReturnsClosest(t *testing.T) {
	w := newSimWorld(t)
	server := w.newNode(t, "10.0.0.1", 6881, 1)
	// Seed the server's table with 20 nodes.
	for i := 0; i < 20; i++ {
		var id krpc.NodeID
		id[0] = byte(i + 1)
		server.AddNode(krpc.NodeInfo{ID: id, Addr: iputil.AddrFrom4(10, 0, 1, byte(i+1)), Port: 6881})
	}
	client := w.newNode(t, "10.0.0.2", 6881, 2)
	var got []krpc.NodeInfo
	client.FindNode(endpointOf(server), krpc.NodeID{}, func(m *krpc.Message, err error) {
		if err != nil {
			t.Errorf("find_node: %v", err)
			return
		}
		got = m.Nodes
	})
	w.clock.Drain(0)
	if len(got) != BucketSize {
		t.Fatalf("got %d nodes, want %d", len(got), BucketSize)
	}
	// Responses must be the XOR-closest to the zero target: ids 1..8.
	for _, info := range got {
		if info.ID[0] > BucketSize {
			t.Errorf("node %v is not among the closest", info.ID[0])
		}
	}
}

func TestBootstrapPopulatesTable(t *testing.T) {
	w := newSimWorld(t)
	// A small pre-connected swarm.
	var nodes []*Node
	for i := 0; i < 12; i++ {
		n := w.newNode(t, "10.0.1."+itoa(i+1), 6881, int64(i+10))
		nodes = append(nodes, n)
	}
	// Chain their tables so lookups can traverse.
	for i, n := range nodes {
		for j := 0; j < 4; j++ {
			k := (i + j + 1) % len(nodes)
			n.AddNode(krpc.NodeInfo{ID: nodes[k].ID(), Addr: endpointOf(nodes[k]).Addr, Port: endpointOf(nodes[k]).Port})
		}
	}
	newcomer := w.newNode(t, "10.0.2.1", 6881, 99)
	learnedReported := -1
	newcomer.Bootstrap(endpointOf(nodes[0]), func(learned int) { learnedReported = learned })
	w.clock.Drain(0)
	if newcomer.TableSize() < 8 {
		t.Errorf("bootstrap learned only %d nodes", newcomer.TableSize())
	}
	if learnedReported < newcomer.TableSize() {
		t.Errorf("reported %d < table %d", learnedReported, newcomer.TableSize())
	}
}

func TestKeepaliveRefreshesNATMapping(t *testing.T) {
	w := newSimWorld(t)
	nat, err := netsim.NewNAT(w.net, netsim.NATConfig{
		PublicAddr: iputil.MustParseAddr("100.64.0.1"),
		MappingTTL: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := nat.Listen(iputil.MustParseAddr("192.168.0.5"), 6881)
	if err != nil {
		t.Fatal(err)
	}
	natted := NewNode(inner, SimClock(w.clock), Config{
		PrivateIP:         iputil.MustParseAddr("192.168.0.5"),
		IDSeed:            5,
		Seed:              5,
		KeepaliveInterval: 4 * time.Minute,
	})
	peer := w.newNode(t, "10.0.0.1", 6881, 1)
	// The NATed node pings out once to open its mapping and learn the peer.
	natted.Ping(endpointOf(peer), nil)
	w.clock.RunFor(time.Second)
	pub1, ok := inner.PublicEndpoint()
	if !ok {
		t.Fatal("no mapping after outbound ping")
	}
	// An hour later the keepalives must have held the same mapping open.
	w.clock.RunFor(time.Hour)
	pub2, ok := inner.PublicEndpoint()
	if !ok || pub1 != pub2 {
		t.Errorf("mapping lost or changed: %v -> %v (ok=%v)", pub1, pub2, ok)
	}
}

func TestCloseCancelsPending(t *testing.T) {
	w := newSimWorld(t)
	a := w.newNode(t, "10.0.0.1", 6881, 1)
	called := false
	a.Ping(netsim.Endpoint{Addr: iputil.MustParseAddr("10.9.9.9"), Port: 1}, func(*krpc.Message, error) { called = true })
	a.Close()
	w.clock.Drain(0)
	if called {
		t.Error("pending callback fired after Close")
	}
	a.Close() // idempotent
}

func TestNodeIgnoresGarbage(t *testing.T) {
	w := newSimWorld(t)
	a := w.newNode(t, "10.0.0.1", 6881, 1)
	raw, _ := w.net.Listen(netsim.Endpoint{Addr: iputil.MustParseAddr("10.0.0.2"), Port: 9})
	raw.SetHandler(func(netsim.Endpoint, []byte) {})
	raw.Send(endpointOf(a), []byte("not bencode"))
	w.clock.Drain(0)
	if a.Stats().QueriesReceived != 0 {
		t.Error("garbage counted as query")
	}
}

func TestUnknownMethodGetsError(t *testing.T) {
	w := newSimWorld(t)
	a := w.newNode(t, "10.0.0.1", 6881, 1)
	raw, _ := w.net.Listen(netsim.Endpoint{Addr: iputil.MustParseAddr("10.0.0.2"), Port: 9})
	var resp *krpc.Message
	raw.SetHandler(func(_ netsim.Endpoint, p []byte) {
		m, err := krpc.Unmarshal(p)
		if err == nil {
			resp = m
		}
	})
	// Hand-encoded queries with methods the node does not implement
	// (Marshal would refuse them): a made-up one, and BEP 5's get_peers and
	// announce_peer.
	var id krpc.NodeID
	for _, data := range []string{
		"d1:ad2:id20:" + string(id[:]) + "e1:q6:frobml1:t2:zz1:y1:qe",
		"d1:ad2:id20:" + string(id[:]) + "9:info_hash20:" + string(id[:]) + "e1:q9:get_peers1:t2:ee1:y1:qe",
		"d1:ad2:id20:" + string(id[:]) + "9:info_hash20:" + string(id[:]) + "4:porti6881e5:token3:toke1:q13:announce_peer1:t2:ff1:y1:qe",
	} {
		if _, err := krpc.Unmarshal([]byte(data)); err != nil {
			t.Fatalf("test datagram malformed: %v", err)
		}
		resp = nil
		raw.Send(endpointOf(a), []byte(data))
		w.clock.Drain(0)
		if resp == nil || resp.Kind != krpc.KindError || resp.ErrCode != krpc.ErrCodeMethodUnknown {
			t.Fatalf("%q: resp = %+v, want method-unknown error", data, resp)
		}
	}
}

func TestRoutingTableEviction(t *testing.T) {
	var self krpc.NodeID
	rt := newRoutingTable(self, time.Minute)
	now := netsim.Epoch
	// Fill one bucket: IDs with top bit set land in bucket 159.
	for i := 0; i < BucketSize; i++ {
		var id krpc.NodeID
		id[0] = 0x80
		id[19] = byte(i)
		rt.add(krpc.NodeInfo{ID: id, Addr: iputil.Addr(i), Port: 1}, now)
	}
	if rt.size() != BucketSize {
		t.Fatalf("size = %d", rt.size())
	}
	var extra krpc.NodeID
	extra[0] = 0x80
	extra[19] = 0xff
	// Fresh bucket: newcomer rejected.
	rt.add(krpc.NodeInfo{ID: extra, Addr: iputil.Addr(99), Port: 1}, now.Add(time.Second))
	if rt.size() != BucketSize {
		t.Fatalf("bucket overflowed")
	}
	found := false
	for _, e := range rt.closest(extra, make([]krpc.NodeInfo, BucketSize)) {
		if e.ID == extra {
			found = true
		}
	}
	if found {
		t.Error("newcomer should have been rejected from fresh bucket")
	}
	// After staleness, newcomer evicts the oldest.
	rt.add(krpc.NodeInfo{ID: extra, Addr: iputil.Addr(99), Port: 1}, now.Add(time.Hour))
	found = false
	for _, e := range rt.closest(extra, make([]krpc.NodeInfo, BucketSize)) {
		if e.ID == extra {
			found = true
		}
	}
	if !found {
		t.Error("newcomer should evict stale entry")
	}
}

func TestRoutingTableUpdatesEndpointOnRejoin(t *testing.T) {
	var self krpc.NodeID
	rt := newRoutingTable(self, time.Minute)
	var id krpc.NodeID
	id[0] = 0x40
	rt.add(krpc.NodeInfo{ID: id, Addr: 7, Port: 1000}, netsim.Epoch)
	rt.add(krpc.NodeInfo{ID: id, Addr: 7, Port: 2000}, netsim.Epoch.Add(time.Second))
	if rt.size() != 1 {
		t.Fatalf("size = %d", rt.size())
	}
	if got := rt.closest(id, make([]krpc.NodeInfo, 1))[0].Port; got != 2000 {
		t.Errorf("port = %d, want updated 2000", got)
	}
}

func TestRandomEntryCoverage(t *testing.T) {
	var self krpc.NodeID
	rt := newRoutingTable(self, time.Minute)
	if _, ok := rt.randomEntry(3); ok {
		t.Error("empty table returned an entry")
	}
	for i := 1; i <= 3; i++ {
		var id krpc.NodeID
		id[0] = byte(i << 4)
		rt.add(krpc.NodeInfo{ID: id, Addr: iputil.Addr(i), Port: 1}, netsim.Epoch)
	}
	seen := map[iputil.Addr]bool{}
	for pick := 0; pick < 30; pick++ {
		info, ok := rt.randomEntry(pick)
		if !ok {
			t.Fatal("entry expected")
		}
		seen[info.Addr] = true
	}
	if len(seen) != 3 {
		t.Errorf("randomEntry reached %d of 3 entries", len(seen))
	}
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}
