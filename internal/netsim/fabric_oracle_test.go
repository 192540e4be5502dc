package netsim

import (
	"fmt"
	"time"

	"github.com/reuseblock/reuseblock/internal/ipset"
	"github.com/reuseblock/reuseblock/internal/iputil"
)

// This file keeps the map-based fabric as a reference for FuzzFabric: every
// binding, NAT gateway, mapping, internal socket and contacted-peer set is
// found through a Go map keyed by what the datagram carries. It schedules
// its deliveries on a Clock under the same (time, deliveryKey) order as
// Network, so the two fire handlers in the same order when they agree.

type oracleNetwork struct {
	clock    *Clock
	cfg      Config
	fault    FaultHook
	sent     map[iputil.Addr]uint64
	bindings map[Endpoint]*oracleBinding
	direct   map[iputil.Addr]int
	nats     map[iputil.Addr]*oracleNAT
	stats    Stats
}

type oracleBinding struct {
	net     *oracleNetwork
	ep      Endpoint
	handler Handler
	closed  bool
}

func newOracleNetwork(clock *Clock, cfg Config) *oracleNetwork {
	n := &oracleNetwork{
		clock:    clock,
		cfg:      cfg,
		sent:     make(map[iputil.Addr]uint64),
		bindings: make(map[Endpoint]*oracleBinding),
		direct:   make(map[iputil.Addr]int),
		nats:     make(map[iputil.Addr]*oracleNAT),
	}
	if cfg.Faults != nil {
		n.fault = cfg.Faults()
	}
	return n
}

func (n *oracleNetwork) Stats() Stats { return n.stats }

func (n *oracleNetwork) Listen(ep Endpoint) (Socket, error) {
	if _, used := n.bindings[ep]; used {
		return nil, fmt.Errorf("%w: %s", ErrBound, ep)
	}
	if _, natted := n.nats[ep.Addr]; natted {
		return nil, fmt.Errorf("netsim: %s is a NAT public address", ep.Addr)
	}
	b := &oracleBinding{net: n, ep: ep}
	n.bindings[ep] = b
	n.direct[ep.Addr]++
	return b, nil
}

func (n *oracleNetwork) Bound(ep Endpoint) bool {
	if _, ok := n.bindings[ep]; ok {
		return true
	}
	if nat, ok := n.nats[ep.Addr]; ok {
		m, ok := nat.byExt[ep.Port]
		return ok && !nat.expired(m)
	}
	return false
}

func (b *oracleBinding) Send(to Endpoint, payload []byte) {
	if !b.closed {
		b.net.transmit(b.ep, to, payload)
	}
}

func (b *oracleBinding) SetHandler(h Handler) {
	if !b.closed {
		b.handler = h
	}
}

func (b *oracleBinding) PublicEndpoint() (Endpoint, bool) {
	if b.closed {
		return Endpoint{}, false
	}
	return b.ep, true
}

func (b *oracleBinding) Close() {
	if b.closed {
		return
	}
	b.closed, b.handler = true, nil
	delete(b.net.bindings, b.ep)
	if b.net.direct[b.ep.Addr]--; b.net.direct[b.ep.Addr] == 0 {
		delete(b.net.direct, b.ep.Addr)
	}
}

func (n *oracleNetwork) trace(kind TraceKind, from, to Endpoint, size int) {
	if n.cfg.Trace != nil {
		n.cfg.Trace(TraceEvent{At: n.clock.Now(), Kind: kind, From: from, To: to, Size: size})
	}
}

// oracleDelivery is a scheduled datagram; the clock fires it in the slot
// order Network's deliveries use.
type oracleDelivery struct {
	net      *oracleNetwork
	from, to Endpoint
	payload  []byte
}

func (d oracleDelivery) Fire(seq uint64) { d.net.deliver(d.from, d.to, seq, d.payload) }

func (n *oracleNetwork) transmit(from, to Endpoint, payload []byte) {
	seq := n.sent[from.Addr]
	n.sent[from.Addr] = seq + 1
	n.stats.Sent++
	n.trace(TraceSend, from, to, len(payload))
	fate := NewFate(n.cfg.Seed, from, to, seq)
	if n.cfg.Loss > 0 && fate.Float64() < n.cfg.Loss {
		n.stats.Dropped++
		n.trace(TraceDrop, from, to, len(payload))
		return
	}
	delay := n.cfg.LatencyBase
	if n.cfg.LatencyJitter > 0 {
		delay += time.Duration(fate.Uint64() % uint64(n.cfg.LatencyJitter))
	}
	data := make([]byte, len(payload))
	copy(data, payload)
	_, s := n.clock.schedule(n.clock.now+int64(delay), deliveryKey(from, seq))
	s.target, s.seq = oracleDelivery{net: n, from: from, to: to, payload: data}, seq
}

func (n *oracleNetwork) deliver(from, to Endpoint, seq uint64, payload []byte) {
	if n.fault != nil {
		payload = n.fault(Datagram{At: time.Duration(n.clock.now), From: from, To: to, Seq: seq, Payload: payload})
		if payload == nil {
			n.stats.FaultDropped++
			n.trace(TraceFaultDrop, from, to, 0)
			return
		}
	}
	if nat, ok := n.nats[to.Addr]; ok {
		nat.inbound(from, to, payload)
		return
	}
	b, ok := n.bindings[to]
	if !ok || b.handler == nil {
		n.stats.NoRoute++
		n.trace(TraceNoRoute, from, to, len(payload))
		return
	}
	n.stats.Delivered++
	n.trace(TraceDeliver, from, to, len(payload))
	b.handler(from, payload)
}

type oracleNAT struct {
	net   *oracleNetwork
	cfg   NATConfig
	next  uint16
	byExt map[uint16]*oracleMapping
	byInt map[internalKey]*oracleMapping
	socks map[internalKey]*oracleNATSocket
	peers map[internalKey]*ipset.Set
}

type oracleMapping struct {
	intKey   internalKey
	extPort  uint16
	lastUsed time.Time
}

type oracleNATSocket struct {
	nat     *oracleNAT
	key     internalKey
	handler Handler
	closed  bool
}

func newOracleNAT(n *oracleNetwork, cfg NATConfig) (*oracleNAT, error) {
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
	nat := &oracleNAT{
		net:   n,
		cfg:   cfg,
		next:  cfg.FirstPort,
		byExt: make(map[uint16]*oracleMapping),
		byInt: make(map[internalKey]*oracleMapping),
		socks: make(map[internalKey]*oracleNATSocket),
		peers: make(map[internalKey]*ipset.Set),
	}
	n.nats[cfg.PublicAddr] = nat
	return nat, nil
}

func (nat *oracleNAT) Listen(privateAddr iputil.Addr, privatePort uint16) (Socket, error) {
	key := internalKey{privateAddr, privatePort}
	if _, used := nat.socks[key]; used {
		return nil, fmt.Errorf("%w: internal %s:%d", ErrBound, privateAddr, privatePort)
	}
	s := &oracleNATSocket{nat: nat, key: key}
	nat.socks[key] = s
	return s, nil
}

func (nat *oracleNAT) ActiveMappings() int {
	n := 0
	for _, m := range nat.byExt {
		if !nat.expired(m) {
			n++
		}
	}
	return n
}

func (nat *oracleNAT) expired(m *oracleMapping) bool {
	return nat.net.clock.Now().Sub(m.lastUsed) > nat.cfg.MappingTTL
}

func (nat *oracleNAT) outbound(key internalKey, to Endpoint, payload []byte) {
	m, ok := nat.byInt[key]
	if ok && nat.expired(m) {
		nat.dropMapping(m)
		ok = false
	}
	if !ok {
		if m, ok = nat.allocate(key); !ok {
			nat.net.stats.NoRoute++
			return
		}
	}
	m.lastUsed = nat.net.clock.Now()
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

func (nat *oracleNAT) inbound(from, to Endpoint, payload []byte) {
	m, ok := nat.byExt[to.Port]
	if !ok || nat.expired(m) {
		if ok {
			nat.dropMapping(m)
		}
		nat.net.stats.NoRoute++
		nat.net.trace(TraceNoRoute, from, to, len(payload))
		return
	}
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
	nat.net.stats.Delivered++
	nat.net.trace(TraceDeliver, from, to, len(payload))
	s.handler(from, payload)
}

func (nat *oracleNAT) allocate(key internalKey) (*oracleMapping, bool) {
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
			if !nat.expired(old) {
				continue
			}
			nat.dropMapping(old)
		}
		m := &oracleMapping{intKey: key, extPort: port}
		nat.byExt[port] = m
		nat.byInt[key] = m
		return m, true
	}
	return nil, false
}

func (nat *oracleNAT) dropMapping(m *oracleMapping) {
	delete(nat.byExt, m.extPort)
	if nat.byInt[m.intKey] == m {
		delete(nat.byInt, m.intKey)
	}
}

func (s *oracleNATSocket) Send(to Endpoint, payload []byte) {
	if !s.closed {
		s.nat.outbound(s.key, to, payload)
	}
}

func (s *oracleNATSocket) SetHandler(h Handler) { s.handler = h }

// PublicEndpoint answers false once the socket is closed. (The map-based
// NAT this file keeps looked the mapping up by internal endpoint alone, so a
// closed socket reported the mapping of a later socket bound on the same
// internal endpoint; Network does not, and nothing outside this package
// calls PublicEndpoint on a simulated socket.)
func (s *oracleNATSocket) PublicEndpoint() (Endpoint, bool) {
	m, ok := s.nat.byInt[s.key]
	if s.closed || !ok || s.nat.expired(m) {
		return Endpoint{}, false
	}
	return Endpoint{s.nat.cfg.PublicAddr, m.extPort}, true
}

func (s *oracleNATSocket) Close() {
	if s.closed {
		return
	}
	s.closed = true
	delete(s.nat.socks, s.key)
	if m, ok := s.nat.byInt[s.key]; ok {
		s.nat.dropMapping(m)
	}
	delete(s.nat.peers, s.key)
}
