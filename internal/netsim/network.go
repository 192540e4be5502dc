package netsim

import (
	"errors"
	"fmt"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

// Endpoint is a (public address, UDP port) pair.
type Endpoint struct {
	Addr iputil.Addr
	Port uint16
}

// String renders "a.b.c.d:port".
func (e Endpoint) String() string {
	return fmt.Sprintf("%s:%d", e.Addr, e.Port)
}

// Handler receives a datagram delivered to a socket. from is the source
// endpoint as visible on the public network (i.e. after any NAT rewriting).
type Handler func(from Endpoint, payload []byte)

// Socket is a bound UDP-like endpoint on the simulated network. Sockets are
// either directly bound public endpoints (Network.Listen) or internal
// endpoints behind a NAT (NAT.Listen).
type Socket interface {
	// Send transmits payload to a public endpoint. The socket keeps no
	// reference to payload, so the caller may reuse it once Send returns.
	Send(to Endpoint, payload []byte)
	// SetHandler installs the receive callback; it must be set before any
	// datagram arrives or deliveries are dropped.
	SetHandler(Handler)
	// PublicEndpoint returns the externally visible endpoint, which for
	// NATed sockets is the current NAT mapping (allocated on first send).
	// ok is false when no mapping exists yet.
	PublicEndpoint() (Endpoint, bool)
	// Close unbinds the socket.
	Close()
}

// Stats counts network activity.
type Stats struct {
	Sent         int64 // datagrams submitted
	Delivered    int64 // datagrams handed to a handler
	Dropped      int64 // lost in transit (random loss)
	NoRoute      int64 // destination not bound / NAT drop
	FaultDropped int64 // dropped by an installed fault hook
}

// TraceKind classifies a traced datagram event.
type TraceKind byte

// Trace event kinds.
const (
	TraceSend      TraceKind = 'S' // datagram submitted to the fabric
	TraceDrop      TraceKind = 'D' // lost to random loss
	TraceDeliver   TraceKind = 'R' // handed to a receiver
	TraceNoRoute   TraceKind = 'X' // destination unbound or filtered
	TraceFaultDrop TraceKind = 'F' // dropped by a fault hook
)

// TraceEvent describes one fabric event for a Tracer.
type TraceEvent struct {
	At   time.Time
	Kind TraceKind
	From Endpoint
	To   Endpoint
	Size int
}

// Tracer observes fabric events; install via Config.Trace. Tracers must not
// mutate the network.
type Tracer func(TraceEvent)

// Datagram is one datagram arriving at its destination, as a FaultHook sees
// it.
type Datagram struct {
	At       time.Duration // arrival time, as an offset from Epoch
	From, To Endpoint
	Seq      uint64 // the source address's send sequence number
	Payload  []byte
}

// FaultHook inspects one arriving datagram, before NAT traversal and
// routing, and may drop or rewrite it: return nil to drop, the payload
// unchanged to pass, or a different slice to rewrite. A hook runs on the
// event loop of the shard owning d.To, so state it keeps per destination
// address needs no locking; its randomness must come from the datagram
// (see NewFate), never from a stream consulted in event order.
type FaultHook func(d Datagram) []byte

// Config tunes the network fabric.
type Config struct {
	// Loss is the independent drop probability per datagram in [0, 1).
	Loss float64
	// LatencyBase and LatencyJitter shape one-way delay: base plus a
	// uniformly random jitter.
	LatencyBase   time.Duration
	LatencyJitter time.Duration
	// Seed keys every datagram's Fate, which decides its loss and jitter.
	Seed int64
	// Trace, when set, observes every send/drop/deliver/no-route event —
	// the simulator's tcpdump.
	Trace Tracer
	// Faults, when set, is called once per fabric shard (once for a
	// standalone Network) to build the hook that sees every datagram
	// arriving on that shard — the place to model misbehaviour such as
	// bursty loss, partitions, rate limiting or reply corruption.
	Faults func() FaultHook
}

// validate rejects configurations NewNetwork must not accept.
func (cfg *Config) validate() error {
	if cfg.Loss < 0 || cfg.Loss >= 1 {
		return fmt.Errorf("netsim: loss %v out of range [0, 1)", cfg.Loss)
	}
	if cfg.LatencyBase < 0 {
		return fmt.Errorf("netsim: negative latency base %v", cfg.LatencyBase)
	}
	if cfg.LatencyJitter < 0 {
		return fmt.Errorf("netsim: negative latency jitter %v", cfg.LatencyJitter)
	}
	return nil
}

// Network simulates the public IPv4 fabric: bindings, loss, latency, NATs.
// All methods must be called from the event loop goroutine of its clock.
// A standalone Network is a one-shard fabric; a ShardGroup runs one Network
// per shard. Either way a datagram's fate is a function of the datagram
// alone (NewFate), so runs are reproducible for any shard count.
//
// The fabric keeps one record per public address it has ever bound: addrs
// maps the address to an index into the dense hosts slice, and the record
// holds the address's send sequence, the NAT fronting it (nil for a direct
// host) and its direct bindings. Binding state is pooled: slot data lives
// in one index-addressed slice with a freelist, each slot knows its host
// record, and the Socket a caller holds is a small generation-checked
// handle. A NAT knows its own host record too, so sending hashes nothing,
// and a delivery costs the one addrs lookup of its destination. Records are
// never freed: an address that is closed and bound again continues its send
// sequence, which keys every datagram's Fate.
type Network struct {
	clock  *Clock
	cfg    Config
	fault  FaultHook
	addrs  map[iputil.Addr]int32 // public address -> index into hosts
	hosts  []host
	bslots []bslot
	bfree  []int32 // freelist of vacated slot indices
	stats  Stats
	// forward, when set by a ShardGroup, sees each datagram after the
	// loss/jitter rolls and payload copy; returning true means the
	// destination lives on another shard and delivery was handed off.
	forward func(deliverAt int64, from, to Endpoint, seq uint64, payload []byte) bool
}

// host is the fabric's record of one public address. A direct host's
// bindings are usually one socket, so the first sits inline and only an
// address bound on several ports spills into more.
type host struct {
	sent  uint64  // datagrams sent from this address
	nat   *NAT    // the gateway fronting the address; nil for a direct host
	first int32   // a direct binding's index into bslots, -1 when none
	more  []int32 // the address's other direct bindings
}

// bslot is pooled per-binding state. gen is odd while the slot is bound
// and increments on bind and on close, so a stale handle whose slot was
// recycled cannot reach the new occupant.
type bslot struct {
	ep      Endpoint
	handler Handler
	host    int32 // index of ep.Addr's record in hosts
	gen     uint32
}

// bhandle is the Socket returned by Listen: an index into the pool plus the
// generation it was created under.
type bhandle struct {
	net *Network
	idx int32
	gen uint32
}

// NewNetwork builds an empty network on the given clock. It returns an
// error — not a panic — for out-of-range configuration, so user-supplied
// flag values surface as config errors.
func NewNetwork(clock *Clock, cfg Config) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &Network{clock: clock, cfg: cfg, addrs: make(map[iputil.Addr]int32)}
	if cfg.Faults != nil {
		n.fault = cfg.Faults()
	}
	return n, nil
}

// Clock returns the network's clock.
func (n *Network) Clock() *Clock { return n.clock }

// Stats returns a snapshot of traffic counters.
func (n *Network) Stats() Stats { return n.stats }

// ErrBound is returned when binding an endpoint that is already in use.
var ErrBound = errors.New("netsim: endpoint already bound")

// addHost returns the index of addr's record, creating an empty one the
// first time addr is bound.
func (n *Network) addHost(addr iputil.Addr) int32 {
	hi, ok := n.addrs[addr]
	if !ok {
		hi = int32(len(n.hosts))
		n.hosts = append(n.hosts, host{first: -1})
		n.addrs[addr] = hi
	}
	return hi
}

// binding returns the index into bslots of h's direct binding on port, or
// -1.
func (n *Network) binding(h *host, port uint16) int32 {
	if h.first >= 0 && n.bslots[h.first].ep.Port == port {
		return h.first
	}
	for _, bi := range h.more {
		if n.bslots[bi].ep.Port == port {
			return bi
		}
	}
	return -1
}

// Listen binds a public endpoint and returns its socket.
func (n *Network) Listen(ep Endpoint) (Socket, error) {
	hi := n.addHost(ep.Addr)
	h := &n.hosts[hi]
	if n.binding(h, ep.Port) >= 0 {
		return nil, fmt.Errorf("%w: %s", ErrBound, ep)
	}
	if h.nat != nil {
		return nil, fmt.Errorf("netsim: %s is a NAT public address", ep.Addr)
	}
	var idx int32
	if k := len(n.bfree); k > 0 {
		idx = n.bfree[k-1]
		n.bfree = n.bfree[:k-1]
	} else {
		n.bslots = append(n.bslots, bslot{})
		idx = int32(len(n.bslots) - 1)
	}
	if h.first < 0 {
		h.first = idx
	} else {
		h.more = append(h.more, idx)
	}
	s := &n.bslots[idx]
	s.ep, s.handler, s.host = ep, nil, hi
	s.gen++
	return &bhandle{net: n, idx: idx, gen: s.gen}, nil
}

// Bound reports whether the endpoint is currently bound (directly or as an
// active NAT mapping).
func (n *Network) Bound(ep Endpoint) bool {
	hi, ok := n.addrs[ep.Addr]
	if !ok {
		return false
	}
	h := &n.hosts[hi]
	if h.nat != nil {
		return h.nat.hasMapping(ep.Port)
	}
	return n.binding(h, ep.Port) >= 0
}

// slot resolves a handle to its pooled state; nil when the binding was
// closed (possibly recycled for another endpoint since).
func (h *bhandle) slot() *bslot {
	s := &h.net.bslots[h.idx]
	if s.gen != h.gen {
		return nil
	}
	return s
}

func (h *bhandle) Send(to Endpoint, payload []byte) {
	if s := h.slot(); s != nil {
		h.net.transmit(s.host, s.ep, to, payload)
	}
}

func (h *bhandle) SetHandler(hdl Handler) {
	if s := h.slot(); s != nil {
		s.handler = hdl
	}
}

func (h *bhandle) PublicEndpoint() (Endpoint, bool) {
	if s := h.slot(); s != nil {
		return s.ep, true
	}
	return Endpoint{}, false
}

func (h *bhandle) Close() {
	s := h.slot()
	if s == nil {
		return
	}
	rec := &h.net.hosts[s.host]
	if rec.first == h.idx {
		rec.first = -1
		if k := len(rec.more); k > 0 {
			rec.first = rec.more[k-1]
			rec.more = rec.more[:k-1]
		}
	} else {
		for i, bi := range rec.more {
			if bi == h.idx {
				last := len(rec.more) - 1
				rec.more[i] = rec.more[last]
				rec.more = rec.more[:last]
				break
			}
		}
	}
	s.handler = nil
	s.gen++
	h.net.bfree = append(h.net.bfree, h.idx)
}

func (n *Network) trace(kind TraceKind, from, to Endpoint, size int) {
	if n.cfg.Trace != nil {
		n.cfg.Trace(TraceEvent{At: n.clock.Now(), Kind: kind, From: from, To: to, Size: size})
	}
}

// transmit moves a datagram from the address recorded at hosts[hi] across
// the fabric: number it in that address's send sequence, roll loss and
// delay from its Fate, then route.
func (n *Network) transmit(hi int32, from, to Endpoint, payload []byte) {
	h := &n.hosts[hi]
	seq := h.sent
	h.sent++
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
	// Copy the payload so sender-side buffer reuse cannot corrupt
	// in-flight datagrams.
	data := make([]byte, len(payload))
	copy(data, payload)
	at := n.clock.now + int64(delay)
	if n.forward != nil && n.forward(at, from, to, seq, data) {
		return
	}
	n.clock.deliverAt(at, n, from, to, seq, data)
}

func (n *Network) deliver(from, to Endpoint, seq uint64, payload []byte) {
	if n.fault != nil {
		payload = n.fault(Datagram{At: time.Duration(n.clock.now), From: from, To: to, Seq: seq, Payload: payload})
		if payload == nil {
			n.stats.FaultDropped++
			n.trace(TraceFaultDrop, from, to, 0)
			return
		}
	}
	bi := int32(-1)
	if hi, ok := n.addrs[to.Addr]; ok {
		h := &n.hosts[hi]
		if h.nat != nil {
			h.nat.inbound(from, to, payload)
			return
		}
		bi = n.binding(h, to.Port)
	}
	if bi < 0 || n.bslots[bi].handler == nil {
		n.stats.NoRoute++
		n.trace(TraceNoRoute, from, to, len(payload))
		return
	}
	n.stats.Delivered++
	n.trace(TraceDeliver, from, to, len(payload))
	n.bslots[bi].handler(from, payload)
}

// Fate is one datagram's private random stream: the splitmix64 sequence
// seeded by hashing (seed, source, destination, the source's send sequence).
// Loss, jitter and fault draws taken from it depend on nothing but the
// datagram — not on the event order, the shard count or what else is in
// flight — the way a real packet's fate does not depend on a global
// arrival counter.
type Fate struct{ state uint64 }

// NewFate returns the stream of datagram seq from from to to under seed.
func NewFate(seed int64, from, to Endpoint, seq uint64) Fate {
	h := mix64(uint64(seed))
	h = mix64(h ^ (uint64(from.Addr)<<16 | uint64(from.Port)))
	h = mix64(h ^ (uint64(to.Addr)<<16 | uint64(to.Port)))
	return Fate{state: mix64(h ^ seq)}
}

// Uint64 returns the stream's next 64-bit draw.
func (f *Fate) Uint64() uint64 {
	f.state += golden64
	return mix64(f.state)
}

// Float64 returns the next draw as a float in [0, 1).
func (f *Fate) Float64() float64 { return float64(f.Uint64()>>11) / (1 << 53) }

// Intn returns the next draw reduced to [0, n); n must be positive.
func (f *Fate) Intn(n int) int { return int(f.Uint64() % uint64(n)) }

const golden64 = 0x9e3779b97f4a7c15

// mix64 is splitmix64's output function applied to x plus the golden gamma.
func mix64(x uint64) uint64 {
	x += golden64
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
