package netsim

import (
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

func mustNAT(t *testing.T, n *Network, cfg NATConfig) *NAT {
	t.Helper()
	nat, err := NewNAT(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nat
}

func TestNATOutboundAllocatesMapping(t *testing.T) {
	n := newTestNet(t, Config{})
	nat := mustNAT(t, n, NATConfig{PublicAddr: iputil.MustParseAddr("100.64.0.1"), FirstPort: 5000})
	inner, err := nat.Listen(iputil.MustParseAddr("192.168.0.10"), 6881)
	if err != nil {
		t.Fatal(err)
	}
	server, _ := n.Listen(ep("10.0.0.9", 53))
	var seen Endpoint
	server.SetHandler(func(f Endpoint, _ []byte) { seen = f })

	if _, ok := inner.PublicEndpoint(); ok {
		t.Error("mapping should not exist before first send")
	}
	inner.Send(ep("10.0.0.9", 53), []byte("q"))
	n.Clock().Drain(0)
	if seen != ep("100.64.0.1", 5000) {
		t.Errorf("server saw %v, want NAT public endpoint", seen)
	}
	pub, ok := inner.PublicEndpoint()
	if !ok || pub != ep("100.64.0.1", 5000) {
		t.Errorf("PublicEndpoint = %v, %v", pub, ok)
	}
}

func TestNATTwoUsersTwoPorts(t *testing.T) {
	// The Fig 1 scenario: two internal BitTorrent users behind one public
	// address must appear as one IP with two ports — the crawler's signal.
	n := newTestNet(t, Config{})
	nat := mustNAT(t, n, NATConfig{PublicAddr: iputil.MustParseAddr("100.64.0.1")})
	u1, _ := nat.Listen(iputil.MustParseAddr("192.168.0.10"), 6881)
	u2, _ := nat.Listen(iputil.MustParseAddr("192.168.0.11"), 6881)
	server, _ := n.Listen(ep("10.0.0.9", 53))
	var ports []uint16
	server.SetHandler(func(f Endpoint, _ []byte) { ports = append(ports, f.Port) })
	u1.Send(ep("10.0.0.9", 53), []byte("a"))
	u2.Send(ep("10.0.0.9", 53), []byte("b"))
	n.Clock().Drain(0)
	if len(ports) != 2 || ports[0] == ports[1] {
		t.Errorf("ports = %v, want two distinct", ports)
	}
}

func TestNATInboundFullCone(t *testing.T) {
	n := newTestNet(t, Config{})
	nat := mustNAT(t, n, NATConfig{PublicAddr: iputil.MustParseAddr("100.64.0.1"), Filtering: FullCone})
	inner, _ := nat.Listen(iputil.MustParseAddr("192.168.0.10"), 6881)
	peer, _ := n.Listen(ep("10.0.0.9", 53))
	inner.SetHandler(func(f Endpoint, p []byte) {
		inner.Send(f, []byte("pong"))
	})
	var reply []byte
	peer.SetHandler(func(_ Endpoint, p []byte) { reply = p })

	// Establish the mapping by sending anywhere.
	other, _ := n.Listen(ep("10.0.0.8", 1))
	inner.Send(ep("10.0.0.8", 1), []byte("open"))
	_ = other
	n.Clock().Drain(0)
	pub, _ := inner.PublicEndpoint()

	// Unsolicited ping from a third party must pass a full-cone NAT.
	peer.Send(pub, []byte("ping"))
	n.Clock().Drain(0)
	if string(reply) != "pong" {
		t.Errorf("no pong through full-cone NAT: %q", reply)
	}
}

func TestNATInboundAddressRestricted(t *testing.T) {
	n := newTestNet(t, Config{})
	nat := mustNAT(t, n, NATConfig{PublicAddr: iputil.MustParseAddr("100.64.0.1"), Filtering: AddressRestricted})
	inner, _ := nat.Listen(iputil.MustParseAddr("192.168.0.10"), 6881)
	got := 0
	inner.SetHandler(func(Endpoint, []byte) { got++ })
	known, _ := n.Listen(ep("10.0.0.8", 1))
	stranger, _ := n.Listen(ep("10.0.0.9", 1))
	_ = known

	inner.Send(ep("10.0.0.8", 1), []byte("open"))
	n.Clock().Drain(0)
	pub, _ := inner.PublicEndpoint()

	stranger.Send(pub, []byte("x")) // filtered
	known.Send(pub, []byte("y"))    // passes
	n.Clock().Drain(0)
	if got != 1 {
		t.Errorf("delivered %d, want 1 (stranger filtered)", got)
	}
}

func TestNATMappingExpiryChangesPort(t *testing.T) {
	n := newTestNet(t, Config{})
	nat := mustNAT(t, n, NATConfig{
		PublicAddr: iputil.MustParseAddr("100.64.0.1"),
		MappingTTL: time.Minute,
	})
	inner, _ := nat.Listen(iputil.MustParseAddr("192.168.0.10"), 6881)
	sink, _ := n.Listen(ep("10.0.0.9", 53))
	sink.SetHandler(func(Endpoint, []byte) {})

	inner.Send(ep("10.0.0.9", 53), []byte("a"))
	n.Clock().Drain(0)
	p1, _ := inner.PublicEndpoint()

	n.Clock().RunFor(2 * time.Minute) // idle past TTL
	if _, ok := inner.PublicEndpoint(); ok {
		t.Error("expired mapping still reported")
	}
	inner.Send(ep("10.0.0.9", 53), []byte("b"))
	n.Clock().Drain(0)
	p2, _ := inner.PublicEndpoint()
	if p1.Port == p2.Port {
		t.Errorf("port did not change after expiry: %v -> %v", p1, p2)
	}
}

func TestNATMappingRefreshedByOutbound(t *testing.T) {
	n := newTestNet(t, Config{})
	nat := mustNAT(t, n, NATConfig{
		PublicAddr: iputil.MustParseAddr("100.64.0.1"),
		MappingTTL: time.Minute,
	})
	inner, _ := nat.Listen(iputil.MustParseAddr("192.168.0.10"), 6881)
	sink, _ := n.Listen(ep("10.0.0.9", 53))
	sink.SetHandler(func(Endpoint, []byte) {})

	inner.Send(ep("10.0.0.9", 53), []byte("a"))
	n.Clock().Drain(0)
	p1, _ := inner.PublicEndpoint()
	for i := 0; i < 5; i++ {
		n.Clock().RunFor(30 * time.Second) // within TTL
		inner.Send(ep("10.0.0.9", 53), []byte("keepalive"))
		n.Clock().Drain(0)
	}
	p2, ok := inner.PublicEndpoint()
	if !ok || p1 != p2 {
		t.Errorf("refreshed mapping changed: %v -> %v (%v)", p1, p2, ok)
	}
}

func TestNATConflictsWithBinding(t *testing.T) {
	n := newTestNet(t, Config{})
	if _, err := n.Listen(ep("100.64.0.1", 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewNAT(n, NATConfig{PublicAddr: iputil.MustParseAddr("100.64.0.1")}); err == nil {
		t.Error("NAT over bound address should fail")
	}
	nat := mustNAT(t, n, NATConfig{PublicAddr: iputil.MustParseAddr("100.64.0.2")})
	_ = nat
	if _, err := n.Listen(ep("100.64.0.2", 9)); err == nil {
		t.Error("binding on NAT public address should fail")
	}
	if _, err := NewNAT(n, NATConfig{PublicAddr: iputil.MustParseAddr("100.64.0.2")}); err == nil {
		t.Error("duplicate NAT should fail")
	}
}

func TestNATWaitsForEveryDirectBindingToClose(t *testing.T) {
	n := newTestNet(t, Config{})
	pub := iputil.MustParseAddr("100.64.0.1")
	a, err := n.Listen(ep("100.64.0.1", 9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Listen(ep("100.64.0.1", 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNAT(n, NATConfig{PublicAddr: pub}); err == nil {
		t.Fatal("NAT over an address with two bound ports should fail")
	}
	a.Close()
	a.Close() // a second Close of the same socket must not count twice
	if _, err := NewNAT(n, NATConfig{PublicAddr: pub}); err == nil {
		t.Fatal("NAT should still fail while port 10 is bound")
	}
	b.Close()
	mustNAT(t, n, NATConfig{PublicAddr: pub})
	if _, err := n.Listen(ep("100.64.0.1", 9)); err == nil {
		t.Error("binding on the new NAT's public address should fail")
	}
}

func TestNATInternalDoubleBind(t *testing.T) {
	n := newTestNet(t, Config{})
	nat := mustNAT(t, n, NATConfig{PublicAddr: iputil.MustParseAddr("100.64.0.1")})
	if _, err := nat.Listen(iputil.MustParseAddr("192.168.0.10"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := nat.Listen(iputil.MustParseAddr("192.168.0.10"), 1); err == nil {
		t.Error("internal double bind should fail")
	}
}

func TestNATSocketClose(t *testing.T) {
	n := newTestNet(t, Config{})
	nat := mustNAT(t, n, NATConfig{PublicAddr: iputil.MustParseAddr("100.64.0.1")})
	inner, _ := nat.Listen(iputil.MustParseAddr("192.168.0.10"), 1)
	sink, _ := n.Listen(ep("10.0.0.9", 53))
	sink.SetHandler(func(Endpoint, []byte) {})
	inner.Send(ep("10.0.0.9", 53), []byte("a"))
	n.Clock().Drain(0)
	if nat.ActiveMappings() != 1 {
		t.Fatalf("ActiveMappings = %d", nat.ActiveMappings())
	}
	inner.Close()
	if nat.ActiveMappings() != 0 {
		t.Errorf("mappings survive close: %d", nat.ActiveMappings())
	}
	inner.Send(ep("10.0.0.9", 53), []byte("late")) // ignored
	n.Clock().Drain(0)
	if _, err := nat.Listen(iputil.MustParseAddr("192.168.0.10"), 1); err != nil {
		t.Errorf("rebind after close: %v", err)
	}
}
