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
// Mapping state is pooled: mappings live in one index-addressed slice with a
// freelist, and byExt/byInt store int32 slot indices rather than pointers.
// At paper scale the NAT population dominates the world (the paper's point
// is that most of the DHT sits behind reused gateway addresses), so mapping
// records are the second-largest per-host cost after node state. Contacted-
// peer sets for AddressRestricted filtering are compact address sets instead
// of maps for the same reason.
type NAT struct {
	net    *Network
	cfg    NATConfig
	next   uint16
	byExt  map[uint16]int32           // external port -> index into mslots
	byInt  map[internalKey]int32      // internal endpoint -> index into mslots
	mslots []mapping                  // pooled mapping records
	mfree  []int32                    // freelist of vacated slots
	socks  map[internalKey]*natSocket // bound internal sockets
	peers  map[internalKey]*ipset.Set // contacted external addrs (for filtering)
}

type internalKey struct {
	addr iputil.Addr // private address of the internal host
	port uint16
}

type mapping struct {
	intKey   internalKey
	extPort  uint16
	lastUsed time.Time
}

// NewNAT registers a NAT gateway on the network. The public address must not
// already be bound or fronted by another NAT.
func NewNAT(n *Network, cfg NATConfig) (*NAT, error) {
	if _, exists := n.nats[cfg.PublicAddr]; exists {
		return nil, fmt.Errorf("netsim: NAT already present at %s", cfg.PublicAddr)
	}
	if n.direct[cfg.PublicAddr] > 0 {
		return nil, fmt.Errorf("netsim: %s already has direct bindings", cfg.PublicAddr)
	}
	if cfg.MappingTTL <= 0 {
		cfg.MappingTTL = 10 * time.Minute
	}
	if cfg.FirstPort == 0 {
		cfg.FirstPort = 1024
	}
	nat := &NAT{
		net:   n,
		cfg:   cfg,
		next:  cfg.FirstPort,
		byExt: make(map[uint16]int32),
		byInt: make(map[internalKey]int32),
		socks: make(map[internalKey]*natSocket),
		peers: make(map[internalKey]*ipset.Set),
	}
	n.nats[cfg.PublicAddr] = nat
	return nat, nil
}

// PublicAddr returns the NAT's public address.
func (nat *NAT) PublicAddr() iputil.Addr { return nat.cfg.PublicAddr }

// Listen binds an internal (private) endpoint behind the NAT.
func (nat *NAT) Listen(privateAddr iputil.Addr, privatePort uint16) (Socket, error) {
	key := internalKey{privateAddr, privatePort}
	if _, used := nat.socks[key]; used {
		return nil, fmt.Errorf("%w: internal %s:%d", ErrBound, privateAddr, privatePort)
	}
	s := &natSocket{nat: nat, key: key}
	nat.socks[key] = s
	return s, nil
}

// ActiveMappings returns the number of unexpired port mappings.
func (nat *NAT) ActiveMappings() int {
	now := nat.net.clock.Now()
	n := 0
	for _, mi := range nat.byExt {
		if !nat.expired(&nat.mslots[mi], now) {
			n++
		}
	}
	return n
}

func (nat *NAT) expired(m *mapping, now time.Time) bool {
	return now.Sub(m.lastUsed) > nat.cfg.MappingTTL
}

func (nat *NAT) hasMapping(extPort uint16) bool {
	mi, ok := nat.byExt[extPort]
	return ok && !nat.expired(&nat.mslots[mi], nat.net.clock.Now())
}

// outbound handles a datagram from an internal socket: allocate or refresh
// the mapping and transmit from the public endpoint.
func (nat *NAT) outbound(key internalKey, to Endpoint, payload []byte) {
	now := nat.net.clock.Now()
	mi, ok := nat.byInt[key]
	if ok && nat.expired(&nat.mslots[mi], now) {
		nat.dropMapping(mi)
		ok = false
	}
	if !ok {
		mi, ok = nat.allocate(key, now)
		if !ok {
			nat.net.stats.NoRoute++ // port space exhausted
			return
		}
	}
	m := &nat.mslots[mi]
	m.lastUsed = now
	if nat.cfg.Filtering == AddressRestricted {
		set := nat.peers[key]
		if set == nil {
			set = ipset.New()
			nat.peers[key] = set
		}
		set.Add(uint32(to.Addr))
	}
	nat.net.transmit(Endpoint{nat.cfg.PublicAddr, m.extPort}, to, payload)
}

// inbound handles a datagram arriving at the public address.
func (nat *NAT) inbound(from, to Endpoint, payload []byte) {
	now := nat.net.clock.Now()
	mi, ok := nat.byExt[to.Port]
	if !ok || nat.expired(&nat.mslots[mi], now) {
		if ok {
			nat.dropMapping(mi)
		}
		nat.net.stats.NoRoute++
		nat.net.trace(TraceNoRoute, from, to, len(payload))
		return
	}
	m := &nat.mslots[mi]
	if nat.cfg.Filtering == AddressRestricted {
		set := nat.peers[m.intKey]
		if set == nil || !set.Contains(uint32(from.Addr)) {
			nat.net.stats.NoRoute++
			nat.net.trace(TraceNoRoute, from, to, len(payload))
			return
		}
	}
	s, ok := nat.socks[m.intKey]
	if !ok || s.handler == nil {
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

func (nat *NAT) allocate(key internalKey, now time.Time) (int32, bool) {
	for tries := 0; tries < 65536; tries++ {
		port := nat.next
		nat.next++
		if nat.next == 0 {
			nat.next = nat.cfg.FirstPort
		}
		if port == 0 {
			continue
		}
		if old, used := nat.byExt[port]; used {
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
		nat.mslots[mi] = mapping{intKey: key, extPort: port, lastUsed: now}
		nat.byExt[port] = mi
		nat.byInt[key] = mi
		return mi, true
	}
	return 0, false
}

func (nat *NAT) dropMapping(mi int32) {
	m := &nat.mslots[mi]
	delete(nat.byExt, m.extPort)
	if cur, ok := nat.byInt[m.intKey]; ok && cur == mi {
		delete(nat.byInt, m.intKey)
	}
	nat.mfree = append(nat.mfree, mi)
}

type natSocket struct {
	nat     *NAT
	key     internalKey
	handler Handler
	closed  bool
}

func (s *natSocket) Send(to Endpoint, payload []byte) {
	if s.closed {
		return
	}
	s.nat.outbound(s.key, to, payload)
}

func (s *natSocket) SetHandler(h Handler) { s.handler = h }

func (s *natSocket) PublicEndpoint() (Endpoint, bool) {
	mi, ok := s.nat.byInt[s.key]
	if !ok || s.nat.expired(&s.nat.mslots[mi], s.nat.net.clock.Now()) {
		return Endpoint{}, false
	}
	return Endpoint{s.nat.cfg.PublicAddr, s.nat.mslots[mi].extPort}, true
}

func (s *natSocket) Close() {
	if s.closed {
		return
	}
	s.closed = true
	delete(s.nat.socks, s.key)
	if mi, ok := s.nat.byInt[s.key]; ok {
		s.nat.dropMapping(mi)
	}
	delete(s.nat.peers, s.key)
}
