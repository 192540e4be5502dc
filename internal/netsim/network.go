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
	// Send transmits payload to a public endpoint.
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
// Binding state is pooled: slot data lives in one index-addressed slice with
// a freelist, the endpoint map stores int32 slot indices, and the Socket a
// caller holds is a small generation-checked handle. A paper-scale world
// binds one socket per public host; keeping those as individual heap objects
// pointed at by a map is exactly the per-host overhead the compact core
// removes.
type Network struct {
	clock    *Clock
	cfg      Config
	fault    FaultHook
	sent     map[iputil.Addr]uint64 // source address -> datagrams sent
	bindings map[Endpoint]int32     // endpoint -> index into bslots
	bslots   []bslot
	bfree    []int32 // freelist of vacated slot indices
	nats     map[iputil.Addr]*NAT
	stats    Stats
	// forward, when set by a ShardGroup, sees each datagram after the
	// loss/jitter rolls and payload copy; returning true means the
	// destination lives on another shard and delivery was handed off.
	forward func(deliverAt int64, from, to Endpoint, seq uint64, payload []byte) bool
}

// bslot is pooled per-binding state. gen increments on close so a stale
// handle whose slot was recycled cannot reach the new occupant.
type bslot struct {
	ep      Endpoint
	handler Handler
	gen     uint32
	used    bool
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
	n := &Network{
		clock:    clock,
		cfg:      cfg,
		sent:     make(map[iputil.Addr]uint64),
		bindings: make(map[Endpoint]int32),
		nats:     make(map[iputil.Addr]*NAT),
	}
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

// Listen binds a public endpoint and returns its socket.
func (n *Network) Listen(ep Endpoint) (Socket, error) {
	if _, used := n.bindings[ep]; used {
		return nil, fmt.Errorf("%w: %s", ErrBound, ep)
	}
	if _, natted := n.nats[ep.Addr]; natted {
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
	s := &n.bslots[idx]
	s.ep, s.handler, s.used = ep, nil, true
	n.bindings[ep] = idx
	return &bhandle{net: n, idx: idx, gen: s.gen}, nil
}

// Bound reports whether the endpoint is currently bound (directly or as an
// active NAT mapping).
func (n *Network) Bound(ep Endpoint) bool {
	if _, ok := n.bindings[ep]; ok {
		return true
	}
	if nat, ok := n.nats[ep.Addr]; ok {
		return nat.hasMapping(ep.Port)
	}
	return false
}

// slot resolves a handle to its pooled state; nil when the binding was
// closed (possibly recycled for another endpoint since).
func (h *bhandle) slot() *bslot {
	s := &h.net.bslots[h.idx]
	if !s.used || s.gen != h.gen {
		return nil
	}
	return s
}

func (h *bhandle) Send(to Endpoint, payload []byte) {
	if s := h.slot(); s != nil {
		h.net.transmit(s.ep, to, payload)
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
	delete(h.net.bindings, s.ep)
	s.used, s.handler = false, nil
	s.gen++
	h.net.bfree = append(h.net.bfree, h.idx)
}

func (n *Network) trace(kind TraceKind, from, to Endpoint, size int) {
	if n.cfg.Trace != nil {
		n.cfg.Trace(TraceEvent{At: n.clock.Now(), Kind: kind, From: from, To: to, Size: size})
	}
}

// transmit moves a datagram across the fabric: number it in its source's
// send sequence, roll loss and delay from its Fate, then route.
func (n *Network) transmit(from, to Endpoint, payload []byte) {
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
	if nat, ok := n.nats[to.Addr]; ok {
		nat.inbound(from, to, payload)
		return
	}
	idx, ok := n.bindings[to]
	if !ok || n.bslots[idx].handler == nil {
		n.stats.NoRoute++
		n.trace(TraceNoRoute, from, to, len(payload))
		return
	}
	n.stats.Delivered++
	n.trace(TraceDeliver, from, to, len(payload))
	n.bslots[idx].handler(from, payload)
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
