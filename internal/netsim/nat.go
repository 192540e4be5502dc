package netsim

import (
	"fmt"
	"time"

	"github.com/reuseblock/reuseblock/internal/ipset"
	"github.com/reuseblock/reuseblock/internal/iputil"
)

// Filtering selects the NAT's inbound filtering behaviour (RFC 4787 terms).
type Filtering int

// NAT filtering modes.
const (
	// FullCone (endpoint-independent filtering): once a mapping exists,
	// any external host may send to it. DHT nodes behind such NATs are
	// reachable by the crawler's unsolicited bt_ping.
	FullCone Filtering = iota
	// AddressRestricted: inbound packets are accepted only from external
	// addresses the internal host has previously contacted. The crawler's
	// unsolicited pings are filtered unless the node has talked to the
	// crawler before — a major source of crawler under-counting.
	AddressRestricted
)

// NATConfig tunes a NAT gateway.
type NATConfig struct {
	// PublicAddr is the gateway's single public address — the address the
	// paper's crawler would (or would not) flag as NATed.
	PublicAddr iputil.Addr
	// Filtering selects the inbound filtering mode.
	Filtering Filtering
	// MappingTTL is the idle timeout after which a port mapping expires;
	// expired mappings force the internal host onto a fresh public port,
	// producing the "port changed / stale info" confound of §3.1.
	MappingTTL time.Duration
	// FirstPort is the first external port handed out; mappings use
	// consecutive ports (wrapping) like many CPE NAT implementations.
	FirstPort uint16
}

// NAT is a network address translator fronting any number of internal hosts
// with a single public address.
//
// A gateway holds no map. Mapping records live in one index-addressed slice
// with a freelist; each mapping points to the internal socket it serves, and
// each socket holds the index of its current mapping and, under
// AddressRestricted filtering, the set of external addresses it has
// contacted. A send therefore finds its mapping through the socket, and an
// inbound datagram finds its mapping by the destination port: first in the
// slot that port was handed out into, then by scanning the pooled records.
// A gateway keeps about as many mappings as it has BitTorrent users; in the
// default worlds at scales 1 and 10 that is 2.3 and 2.4 per NAT on average
// and at most 97 and 98. The bound internal sockets sit in a plain slice,
// consulted only by Listen and Close.
//
// At paper scale the NAT population dominates the world (the paper's point
// is that most of the DHT sits behind reused gateway addresses), so mapping
// records are the second-largest per-host cost after node state.
type NAT struct {
	net    *Network
	cfg    NATConfig
	host   int32 // index of the public address's record in net.hosts
	next   uint16
	mslots []mapping    // pooled mapping records
	mfree  []int32      // freelist of vacated slots
	socks  []*natSocket // bound internal sockets
}

type internalKey struct {
	addr iputil.Addr // private address of the internal host
	port uint16
}

type mapping struct {
	sock     *natSocket // the socket the mapping serves; nil while the slot is free
	lastUsed int64      // ns since Epoch of the last outbound datagram
	extPort  uint16
}

// NewNAT registers a NAT gateway on the network. The public address must not
// already be bound or fronted by another NAT.
func NewNAT(n *Network, cfg NATConfig) (*NAT, error) {
	if hi, ok := n.addrs[cfg.PublicAddr]; ok {
		h := &n.hosts[hi]
		if h.nat != nil {
			return nil, fmt.Errorf("netsim: NAT already present at %s", cfg.PublicAddr)
		}
		if h.first >= 0 {
			return nil, fmt.Errorf("netsim: %s already has direct bindings", cfg.PublicAddr)
		}
	}
	if cfg.MappingTTL <= 0 {
		cfg.MappingTTL = 10 * time.Minute
	}
	if cfg.FirstPort == 0 {
		cfg.FirstPort = 1024
	}
	nat := &NAT{net: n, cfg: cfg, host: n.addHost(cfg.PublicAddr), next: cfg.FirstPort}
	n.hosts[nat.host].nat = nat
	return nat, nil
}

// PublicAddr returns the NAT's public address.
func (nat *NAT) PublicAddr() iputil.Addr { return nat.cfg.PublicAddr }

// Listen binds an internal (private) endpoint behind the NAT.
func (nat *NAT) Listen(privateAddr iputil.Addr, privatePort uint16) (Socket, error) {
	key := internalKey{privateAddr, privatePort}
	for _, s := range nat.socks {
		if s.key == key {
			return nil, fmt.Errorf("%w: internal %s:%d", ErrBound, privateAddr, privatePort)
		}
	}
	s := &natSocket{nat: nat, key: key, mi: -1}
	nat.socks = append(nat.socks, s)
	return s, nil
}

// ActiveMappings returns the number of unexpired port mappings.
func (nat *NAT) ActiveMappings() int {
	now := nat.net.clock.now
	n := 0
	for i := range nat.mslots {
		if m := &nat.mslots[i]; m.sock != nil && !nat.expired(m, now) {
			n++
		}
	}
	return n
}

func (nat *NAT) expired(m *mapping, now int64) bool {
	return now-m.lastUsed > int64(nat.cfg.MappingTTL)
}

// lookup returns the index of the mapping holding extPort, expired or not,
// or -1. Ports are handed out in order into appended slots, so until a
// mapping expires and its slot is reused, port FirstPort+k sits in slot k:
// that slot is tried before the scan.
func (nat *NAT) lookup(extPort uint16) int32 {
	if k := int(extPort - nat.cfg.FirstPort); k < len(nat.mslots) {
		if m := &nat.mslots[k]; m.sock != nil && m.extPort == extPort {
			return int32(k)
		}
	}
	for i := range nat.mslots {
		if m := &nat.mslots[i]; m.sock != nil && m.extPort == extPort {
			return int32(i)
		}
	}
	return -1
}

func (nat *NAT) hasMapping(extPort uint16) bool {
	mi := nat.lookup(extPort)
	return mi >= 0 && !nat.expired(&nat.mslots[mi], nat.net.clock.now)
}

// outbound handles a datagram from an internal socket: allocate or refresh
// the mapping and transmit from the public endpoint.
func (nat *NAT) outbound(s *natSocket, to Endpoint, payload []byte) {
	now := nat.net.clock.now
	mi := s.mi
	if mi >= 0 && nat.expired(&nat.mslots[mi], now) {
		nat.dropMapping(mi)
		mi = -1
	}
	if mi < 0 {
		var ok bool
		if mi, ok = nat.allocate(s, now); !ok {
			nat.net.stats.NoRoute++ // port space exhausted
			return
		}
	}
	m := &nat.mslots[mi]
	m.lastUsed = now
	if nat.cfg.Filtering == AddressRestricted {
		if s.peers == nil {
			s.peers = ipset.New()
		}
		s.peers.Add(uint32(to.Addr))
	}
	nat.net.transmit(nat.host, Endpoint{nat.cfg.PublicAddr, m.extPort}, to, payload)
}

// inbound handles a datagram arriving at the public address.
func (nat *NAT) inbound(from, to Endpoint, payload []byte) {
	mi := nat.lookup(to.Port)
	if mi < 0 || nat.expired(&nat.mslots[mi], nat.net.clock.now) {
		if mi >= 0 {
			nat.dropMapping(mi)
		}
		nat.net.stats.NoRoute++
		nat.net.trace(TraceNoRoute, from, to, len(payload))
		return
	}
	s := nat.mslots[mi].sock
	filtered := nat.cfg.Filtering == AddressRestricted && (s.peers == nil || !s.peers.Contains(uint32(from.Addr)))
	if filtered || s.handler == nil {
		nat.net.stats.NoRoute++
		nat.net.trace(TraceNoRoute, from, to, len(payload))
		return
	}
	// Inbound traffic does not refresh consumer NAT mappings; only
	// outbound does. This asymmetry is what makes stale crawler state
	// realistic.
	nat.net.stats.Delivered++
	nat.net.trace(TraceDeliver, from, to, len(payload))
	s.handler(from, payload)
}

func (nat *NAT) allocate(s *natSocket, now int64) (int32, bool) {
	for tries := 0; tries < 65536; tries++ {
		port := nat.next
		nat.next++
		if nat.next == 0 {
			nat.next = nat.cfg.FirstPort
		}
		if port == 0 {
			continue
		}
		if old := nat.lookup(port); old >= 0 {
			if !nat.expired(&nat.mslots[old], now) {
				continue
			}
			nat.dropMapping(old)
		}
		var mi int32
		if k := len(nat.mfree); k > 0 {
			mi = nat.mfree[k-1]
			nat.mfree = nat.mfree[:k-1]
		} else {
			nat.mslots = append(nat.mslots, mapping{})
			mi = int32(len(nat.mslots) - 1)
		}
		nat.mslots[mi] = mapping{sock: s, extPort: port, lastUsed: now}
		s.mi = mi
		return mi, true
	}
	return 0, false
}

func (nat *NAT) dropMapping(mi int32) {
	m := &nat.mslots[mi]
	m.sock.mi = -1
	m.sock = nil
	nat.mfree = append(nat.mfree, mi)
}

type natSocket struct {
	nat     *NAT
	key     internalKey
	handler Handler
	peers   *ipset.Set // contacted external addresses (AddressRestricted)
	mi      int32      // the current mapping's index in nat.mslots, -1 when none
	closed  bool
}

func (s *natSocket) Send(to Endpoint, payload []byte) {
	if s.closed {
		return
	}
	s.nat.outbound(s, to, payload)
}

func (s *natSocket) SetHandler(h Handler) { s.handler = h }

func (s *natSocket) PublicEndpoint() (Endpoint, bool) {
	if s.mi < 0 || s.nat.expired(&s.nat.mslots[s.mi], s.nat.net.clock.now) {
		return Endpoint{}, false
	}
	return Endpoint{s.nat.cfg.PublicAddr, s.nat.mslots[s.mi].extPort}, true
}

func (s *natSocket) Close() {
	if s.closed {
		return
	}
	s.closed = true
	socks := s.nat.socks
	for i, o := range socks {
		if o == s {
			last := len(socks) - 1
			socks[i] = socks[last]
			socks[last] = nil
			s.nat.socks = socks[:last]
			break
		}
	}
	if s.mi >= 0 {
		s.nat.dropMapping(s.mi)
	}
	s.peers = nil
}
