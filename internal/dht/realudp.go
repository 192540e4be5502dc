package dht

import (
	"net"
	"sync"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

// RealSocket adapts a real net.PacketConn (UDP) to the netsim.Socket
// interface so DHT nodes and the crawler can run on a live network.
//
// Node and crawler code is single-threaded by design; on real sockets,
// incoming packets and timer callbacks arrive on separate goroutines, so
// every RealSocket participating in one logical swarm shares a *sync.Mutex
// that serialises all callbacks. Pair it with LockedClock on the same mutex.
type RealSocket struct {
	pc      net.PacketConn
	mu      *sync.Mutex
	handler netsim.Handler
	closed  bool
	wg      sync.WaitGroup
}

// NewRealSocket wraps pc; mu is the swarm-wide serialisation lock.
func NewRealSocket(pc net.PacketConn, mu *sync.Mutex) *RealSocket {
	s := &RealSocket{pc: pc, mu: mu}
	s.wg.Add(1)
	go s.readLoop()
	return s
}

func (s *RealSocket) readLoop() {
	defer s.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, addr, err := s.pc.ReadFrom(buf)
		if err != nil {
			return // closed
		}
		udp, ok := addr.(*net.UDPAddr)
		if !ok {
			continue
		}
		ip4 := udp.IP.To4()
		if ip4 == nil {
			continue
		}
		from := netsim.Endpoint{
			Addr: iputil.AddrFrom4(ip4[0], ip4[1], ip4[2], ip4[3]),
			Port: uint16(udp.Port),
		}
		payload := make([]byte, n)
		copy(payload, buf[:n])
		s.mu.Lock()
		h, closed := s.handler, s.closed
		if h != nil && !closed {
			h(from, payload)
		}
		s.mu.Unlock()
	}
}

// Send implements netsim.Socket.
func (s *RealSocket) Send(to netsim.Endpoint, payload []byte) {
	oct := to.Addr.Octets()
	dst := &net.UDPAddr{IP: net.IPv4(oct[0], oct[1], oct[2], oct[3]), Port: int(to.Port)}
	_, _ = s.pc.WriteTo(payload, dst) // UDP: errors are equivalent to loss
}

// SetHandler implements netsim.Socket. The caller must hold the swarm
// mutex (Node methods are always invoked under it).
func (s *RealSocket) SetHandler(h netsim.Handler) {
	s.handler = h
}

// PublicEndpoint returns the socket's local address; for sockets behind real
// NATs the mapping is unknowable locally, so ok is true only for directly
// routable binds.
func (s *RealSocket) PublicEndpoint() (netsim.Endpoint, bool) {
	udp, ok := s.pc.LocalAddr().(*net.UDPAddr)
	if !ok {
		return netsim.Endpoint{}, false
	}
	ip4 := udp.IP.To4()
	if ip4 == nil {
		ip4 = net.IPv4(127, 0, 0, 1).To4()
	}
	return netsim.Endpoint{
		Addr: iputil.AddrFrom4(ip4[0], ip4[1], ip4[2], ip4[3]),
		Port: uint16(udp.Port),
	}, true
}

// Close implements netsim.Socket. The caller must hold the swarm mutex. The
// read loop exits asynchronously once the underlying connection unblocks;
// Wait can be used to join it after releasing the mutex.
func (s *RealSocket) Close() {
	if s.closed {
		return
	}
	s.closed = true
	_ = s.pc.Close()
}

// Wait blocks until the read loop has exited. Do not call it while holding
// the swarm mutex.
func (s *RealSocket) Wait() { s.wg.Wait() }

// ListenLoopback binds a fresh UDP socket on 127.0.0.1 (kernel-chosen port)
// and wraps it in a RealSocket sharing mu. It returns the socket and its
// bound endpoint — the way blcrawl's real mode obtains loopback sockets.
func ListenLoopback(mu *sync.Mutex) (*RealSocket, netsim.Endpoint, error) {
	pc, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		return nil, netsim.Endpoint{}, err
	}
	s := NewRealSocket(pc, mu)
	ep, _ := s.PublicEndpoint()
	return s, ep, nil
}

// LockedClock wraps a Clock so every timer callback runs while holding mu;
// use with RealSocket for wall-clock swarms.
func LockedClock(mu *sync.Mutex, inner Clock) Clock {
	return lockedClock{mu: mu, inner: inner}
}

type lockedClock struct {
	mu    *sync.Mutex
	inner Clock
}

func (l lockedClock) Now() time.Time { return l.inner.Now() }

func (l lockedClock) After(d time.Duration, fn func()) Timer {
	return l.inner.After(d, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		fn()
	})
}

func (l lockedClock) AfterEvent(d time.Duration, t netsim.Target, arg uint64) Timer {
	return l.After(d, func() { t.Fire(arg) })
}
