// Package dht implements a BitTorrent Mainline-DHT node (BEP 5) as the
// paper's swarm runs it (§3.1): a 160-bit node identity, a k-bucket Kademlia
// routing table, answers to ping and find_node (the only KRPC methods the
// paper's crawler sends; any other query gets a 204 "Method Unknown" error),
// and keepalive pings that hold a NATed node's mapping open. The crawler is
// the only party that walks the DHT, so ping is the only query a node sends.
//
// Nodes speak KRPC over a netsim.Socket and keep time on a *netsim.Clock:
// every experiment runs them on the deterministic network simulator.
package dht

import (
	"encoding/binary"
	"sync"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

const (
	// queryTimeout bounds how long an issued query waits for a response.
	queryTimeout = 2 * time.Second
	// tableStaleAfter is how long a routing-table entry may go unseen
	// before a newcomer may replace it.
	tableStaleAfter = 15 * time.Minute
)

// Config tunes a DHT node.
type Config struct {
	// ID is the node's identity; zero means "derive from IDSeed".
	ID krpc.NodeID
	// IDSeed feeds GenerateNodeID when ID is zero; combined with the
	// node's (possibly private) IP the way real clients do.
	IDSeed uint64
	// PrivateIP is the address hashed into the node ID; for NATed users
	// this is the RFC 1918 address, so siblings behind one NAT still get
	// distinct IDs.
	PrivateIP iputil.Addr
	// Version is the client version string placed in responses ("v" key).
	Version string
	// KeepaliveInterval is how often the node pings a random routing-table
	// entry. Besides table maintenance, this outbound traffic is what
	// keeps a NAT mapping alive. Zero disables keepalives.
	KeepaliveInterval time.Duration
	// Seed is the initial state of the node's private splitmix64
	// generator (transaction IDs, keepalive targets, byzantine fabrication).
	Seed int64
	// Byzantine makes the node adversarial: it answers find_node with
	// fabricated neighbours drawn from its RNG instead of routing-table
	// contents, poisoning crawlers' discovery frontiers with phantom
	// endpoints. All other behaviour (pings) stays honest, as a
	// real poisoning node would keep itself reachable.
	Byzantine bool
	// ByzantineNodes is how many fabricated neighbours each byzantine
	// find_node response carries; zero means BucketSize.
	ByzantineNodes int
}

// Stats counts node activity.
type Stats struct {
	QueriesReceived   int64
	ResponsesSent     int64
	QueriesSent       int64
	ResponsesReceived int64
	Timeouts          int64
}

// Node is a DHT participant bound to one socket.
type Node struct {
	id    krpc.NodeID
	cfg   Config
	sock  netsim.Socket
	clock *netsim.Clock
	rng   splitmix     // by value, so the generator is no heap object
	table routingTable // by value: one less pointer and heap object per node
	// pending holds the in-flight queries, the first one inline.
	pending   pendingSet
	stats     Stats
	closed    bool
	keepalive netsim.Timer
}

// pendingQuery is an in-flight ping: its 4-byte transaction ID read as a
// big-endian integer, and its timeout.
type pendingQuery struct {
	tx      uint32
	live    bool
	timeout netsim.Timer
}

// pendingSet holds a node's in-flight queries, keyed by transaction ID.
// Most simulated nodes have at most one in flight (a NATed keepalive ping),
// so the first sits inline in the Node and matching a reply to it follows
// no pointer; only pings sent while another is in flight reach the spill
// slice.
type pendingSet struct {
	first pendingQuery // in flight when first.live
	spill []pendingQuery
}

// find returns the in-flight query with transaction ID tx, or nil.
func (s *pendingSet) find(tx uint32) *pendingQuery {
	if s.first.live && s.first.tx == tx {
		return &s.first
	}
	for i := range s.spill {
		if s.spill[i].tx == tx {
			return &s.spill[i]
		}
	}
	return nil
}

// add records p, whose transaction ID must not be in flight.
func (s *pendingSet) add(p pendingQuery) {
	p.live = true
	if !s.first.live {
		s.first = p
		return
	}
	s.spill = append(s.spill, p)
}

// take removes and returns the query with transaction ID tx.
func (s *pendingSet) take(tx uint32) (pendingQuery, bool) {
	q := s.find(tx)
	if q == nil {
		return pendingQuery{}, false
	}
	p := *q
	if q == &s.first {
		s.first = pendingQuery{}
	} else {
		last := len(s.spill) - 1
		*q = s.spill[last]
		s.spill[last] = pendingQuery{}
		s.spill = s.spill[:last]
	}
	return p, true
}

// stopAll stops every query's timeout and empties the set.
func (s *pendingSet) stopAll() {
	if s.first.live {
		s.first.timeout.Stop()
	}
	for i := range s.spill {
		s.spill[i].timeout.Stop()
	}
	*s = pendingSet{}
}

// nodeTimers is a Node as the target of its own timers, which keeps Fire
// out of Node's method set. A timer's argument is the transaction ID of the
// query it times out, or keepaliveTimer.
type nodeTimers Node

// keepaliveTimer lies outside the 32-bit transaction ID range.
const keepaliveTimer = 1 << 32

func (t *nodeTimers) Fire(arg uint64) {
	n := (*Node)(t)
	if arg == keepaliveTimer {
		n.sendKeepalive()
		return
	}
	if _, ok := n.pending.take(uint32(arg)); ok {
		n.stats.Timeouts++
	}
}

// sendBufs holds encode buffers. The fabric copies each payload before Send
// returns, so a buffer is free again at once.
var sendBufs = sync.Pool{New: func() any { return new([]byte) }}

// NewNode creates a node on the given socket and installs its handler. The
// node is immediately able to answer queries; AddNode seeds its routing
// table, and a Ping to a seeded contact opens a NATed node's mapping.
func NewNode(sock netsim.Socket, clock *netsim.Clock, cfg Config) *Node {
	return newNode(func() *Node { return new(Node) }, sock, clock, cfg)
}

func newNode(alloc func() *Node, sock netsim.Socket, clock *netsim.Clock, cfg Config) *Node {
	id := cfg.ID
	if id == (krpc.NodeID{}) {
		id = krpc.GenerateNodeID(cfg.PrivateIP, cfg.IDSeed)
	}
	n := alloc()
	*n = Node{
		id:    id,
		cfg:   cfg,
		sock:  sock,
		clock: clock,
		rng:   splitmix{state: uint64(cfg.Seed)},
	}
	n.table.init(id, tableStaleAfter)
	sock.SetHandler(n.handle)
	if cfg.KeepaliveInterval > 0 {
		n.scheduleKeepalive()
	}
	return n
}

// SimClock returns c.
//
// Deprecated: pass the *netsim.Clock directly. SimClock remains only for
// replayCrawl in benchmark/study.go.
func SimClock(c *netsim.Clock) *netsim.Clock { return c }

// NodeArena allocates Nodes in fixed-size chunks. Chunks are never
// reallocated, so *Node pointers stay stable for the arena's lifetime; a
// million-node swarm becomes ~a thousand slab allocations the garbage
// collector tracks instead of a million individually-header'd objects. The
// zero value is ready for use; arenas are not safe for concurrent use (a
// sharded swarm keeps one arena per shard).
type NodeArena struct {
	chunks [][]Node
	used   int // slots consumed in the last chunk
}

const arenaChunk = 1024

// NewNode is NewNode allocating from the arena.
func (a *NodeArena) NewNode(sock netsim.Socket, clock *netsim.Clock, cfg Config) *Node {
	return newNode(a.alloc, sock, clock, cfg)
}

func (a *NodeArena) alloc() *Node {
	if len(a.chunks) == 0 || a.used == arenaChunk {
		a.chunks = append(a.chunks, make([]Node, arenaChunk))
		a.used = 0
	}
	n := &a.chunks[len(a.chunks)-1][a.used]
	a.used++
	return n
}

// Len returns how many nodes the arena has handed out.
func (a *NodeArena) Len() int {
	if len(a.chunks) == 0 {
		return 0
	}
	return (len(a.chunks)-1)*arenaChunk + a.used
}

// ID returns the node's identity.
func (n *Node) ID() krpc.NodeID { return n.id }

// Stats returns a snapshot of activity counters.
func (n *Node) Stats() Stats { return n.stats }

// TableSize returns the routing-table population.
func (n *Node) TableSize() int { return n.table.size() }

// Closest returns up to k routing-table nodes closest to target.
func (n *Node) Closest(target krpc.NodeID, k int) []krpc.NodeInfo {
	return n.table.closest(target, make([]krpc.NodeInfo, min(k, n.table.size())))
}

// AddNode seeds the routing table directly (used by the world builder to
// pre-populate tables without simulating weeks of organic traffic).
func (n *Node) AddNode(info krpc.NodeInfo) {
	n.table.add(info, n.clock.Now())
}

// Close detaches the node from its socket and cancels timers.
func (n *Node) Close() {
	if n.closed {
		return
	}
	n.closed = true
	n.keepalive.Stop()
	n.pending.stopAll()
	n.sock.Close()
}

// Ping sends a ping query to to. A reply within queryTimeout adds the
// responder to the routing table; otherwise the query counts as a timeout.
func (n *Node) Ping(to netsim.Endpoint) {
	tx := n.newTx()
	if n.send(to, krpc.NewPing(tx[:], n.id)) != nil {
		return
	}
	v := binary.BigEndian.Uint32(tx[:])
	timeout := n.clock.AfterEvent(queryTimeout, (*nodeTimers)(n), uint64(v))
	n.pending.add(pendingQuery{tx: v, timeout: timeout})
	n.stats.QueriesSent++
}

// send marshals m into a pooled buffer and sends it to to.
func (n *Node) send(to netsim.Endpoint, m *krpc.Message) error {
	buf := sendBufs.Get().(*[]byte)
	defer sendBufs.Put(buf)
	data, err := m.AppendMarshal((*buf)[:0])
	if err != nil {
		return err
	}
	*buf = data
	n.sock.Send(to, data)
	return nil
}

// handle processes an incoming datagram, decoded into a stack Message.
func (n *Node) handle(from netsim.Endpoint, payload []byte) {
	if n.closed {
		return
	}
	var m krpc.Message
	if krpc.UnmarshalInto(payload, &m) != nil {
		return // silently ignore garbage, as real nodes do
	}
	switch m.Kind {
	case krpc.KindQuery:
		n.stats.QueriesReceived++
		n.table.add(krpc.NodeInfo{ID: m.ID, Addr: from.Addr, Port: from.Port}, n.clock.Now())
		n.answer(from, &m)
	case krpc.KindResponse, krpc.KindError:
		if len(m.TxID) != 4 {
			return // not a transaction of ours
		}
		p, ok := n.pending.take(binary.BigEndian.Uint32(m.TxID))
		if !ok {
			return // late or spoofed response
		}
		p.timeout.Stop()
		if m.Kind == krpc.KindResponse {
			n.stats.ResponsesReceived++
			n.table.add(krpc.NodeInfo{ID: m.ID, Addr: from.Addr, Port: from.Port}, n.clock.Now())
		}
	}
}

func (n *Node) answer(from netsim.Endpoint, q *krpc.Message) {
	var resp *krpc.Message
	switch q.Method {
	case krpc.MethodPing:
		resp = krpc.NewPingResponse(q.TxID, n.id, []byte(n.cfg.Version))
	case krpc.MethodFindNode:
		var buf [BucketSize]krpc.NodeInfo
		nodes := n.table.closest(q.Target, buf[:])
		if n.cfg.Byzantine {
			nodes = n.fabricateNodes()
		}
		resp = krpc.NewFindNodeResponse(q.TxID, n.id, nodes, []byte(n.cfg.Version))
	default:
		resp = krpc.NewError(q.TxID, krpc.ErrCodeMethodUnknown, "Method Unknown")
	}
	if n.send(from, resp) == nil {
		n.stats.ResponsesSent++
	}
}

// fabricateNodes invents neighbours for a byzantine find_node response:
// random IDs at random addresses and ports, drawn from the node's seeded RNG
// so a byzantine swarm remains deterministic.
func (n *Node) fabricateNodes() []krpc.NodeInfo {
	k := n.cfg.ByzantineNodes
	if k <= 0 {
		k = BucketSize
	}
	out := make([]krpc.NodeInfo, k)
	for i := range out {
		var id krpc.NodeID
		n.rng.Read(id[:])
		out[i] = krpc.NodeInfo{
			ID:   id,
			Addr: iputil.Addr(n.rng.Uint32()),
			Port: uint16(1024 + n.rng.Intn(64000)),
		}
	}
	return out
}

func (n *Node) scheduleKeepalive() {
	n.keepalive = n.clock.AfterEvent(n.cfg.KeepaliveInterval, (*nodeTimers)(n), keepaliveTimer)
}

// sendKeepalive pings a random routing-table entry and re-arms.
func (n *Node) sendKeepalive() {
	if n.closed {
		return
	}
	if info, ok := n.table.randomEntry(n.rng.Intn(1 << 30)); ok {
		n.Ping(netsim.Endpoint{Addr: info.Addr, Port: info.Port})
	}
	n.scheduleKeepalive()
}

// newTx draws a transaction ID that no in-flight query holds, so a reply
// or a timeout can only ever resolve the query it belongs to.
func (n *Node) newTx() (tx [4]byte) {
	v := n.rng.Uint32()
	for n.pending.find(v) != nil {
		v = n.rng.Uint32()
	}
	binary.BigEndian.PutUint32(tx[:], v)
	return tx
}
