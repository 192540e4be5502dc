package dht

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

// TestRealUDPPingPong runs two DHT nodes over genuine UDP sockets on
// loopback and verifies a ping round trip — the paper's crawler transport.
func TestRealUDPPingPong(t *testing.T) {
	var mu sync.Mutex
	clock := LockedClock(&mu, WallClock())

	mkNode := func(seed int64) (*Node, netsim.Endpoint) {
		pc, err := net.ListenPacket("udp4", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		sock := NewRealSocket(pc, &mu)
		mu.Lock()
		n := NewNode(sock, clock, Config{IDSeed: uint64(seed), Seed: seed, QueryTimeout: 2 * time.Second})
		mu.Unlock()
		ep, _ := sock.PublicEndpoint()
		return n, ep
	}

	a, _ := mkNode(1)
	b, bep := mkNode(2)
	defer func() {
		mu.Lock()
		a.Close()
		b.Close()
		mu.Unlock()
	}()

	done := make(chan *krpc.Message, 1)
	mu.Lock()
	a.Ping(bep, func(m *krpc.Message, err error) {
		if err != nil {
			t.Errorf("ping: %v", err)
		}
		done <- m
	})
	mu.Unlock()

	select {
	case m := <-done:
		if m == nil || m.ID != b.ID() {
			t.Fatalf("pong = %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no pong over real UDP")
	}
}

func TestRealUDPFindNode(t *testing.T) {
	var mu sync.Mutex
	clock := LockedClock(&mu, WallClock())
	pcA, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pcB, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sockA, sockB := NewRealSocket(pcA, &mu), NewRealSocket(pcB, &mu)
	mu.Lock()
	a := NewNode(sockA, clock, Config{IDSeed: 1, Seed: 1})
	b := NewNode(sockB, clock, Config{IDSeed: 2, Seed: 2})
	var seeded krpc.NodeID
	seeded[0] = 0x55
	b.AddNode(krpc.NodeInfo{ID: seeded, Addr: 0x7f000001, Port: 1})
	mu.Unlock()
	bep, _ := sockB.PublicEndpoint()

	done := make(chan []krpc.NodeInfo, 1)
	mu.Lock()
	a.FindNode(bep, krpc.NodeID{}, func(m *krpc.Message, err error) {
		if err != nil {
			t.Errorf("find_node: %v", err)
			done <- nil
			return
		}
		done <- m.Nodes
	})
	mu.Unlock()
	select {
	case nodes := <-done:
		// b learns a from the query itself, so the reply holds the seeded
		// node plus a's own entry.
		found := false
		for _, n := range nodes {
			if n.ID == seeded {
				found = true
			}
		}
		if !found {
			t.Fatalf("seeded node missing from %+v", nodes)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no find_node response over real UDP")
	}
	mu.Lock()
	a.Close()
	b.Close()
	mu.Unlock()
}

// lockProbe is a typed timer target that reports whether the swarm mutex
// was held while it fired.
type lockProbe struct {
	mu    *sync.Mutex
	fired chan bool
}

func (p lockProbe) Fire(arg uint64) {
	held := !p.mu.TryLock()
	if !held {
		p.mu.Unlock()
	}
	p.fired <- held && arg == 42
}

// TestLockedClockTypedTimer arms a typed timer through LockedClock on the
// wall clock: it fires under the swarm mutex with its argument, and a Stop
// after firing reports false.
func TestLockedClockTypedTimer(t *testing.T) {
	var mu sync.Mutex
	clock := LockedClock(&mu, WallClock())
	probe := lockProbe{mu: &mu, fired: make(chan bool, 1)}
	timer := clock.AfterEvent(time.Millisecond, probe, 42)
	select {
	case ok := <-probe.fired:
		if !ok {
			t.Fatal("typed timer fired without the swarm mutex or with the wrong argument")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("typed timer never fired")
	}
	if timer.Stop() {
		t.Error("Stop after firing reported true")
	}
}
