package dht

import (
	"encoding/binary"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/netsim"
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
	// QueryTimeout bounds how long an issued query waits for a response.
	QueryTimeout time.Duration
	// KeepaliveInterval is how often the node pings a random routing-table
	// entry. Besides table maintenance, this outbound traffic is what
	// keeps a NAT mapping alive. Zero disables keepalives.
	KeepaliveInterval time.Duration
	// TableStaleAfter configures routing-table eviction.
	TableStaleAfter time.Duration
	// BootstrapAttempts is how many times Bootstrap retries when a round
	// learns no nodes (UDP loss makes single-shot bootstraps flaky);
	// zero means 5, matching real clients' persistence.
	BootstrapAttempts int
	// BootstrapRetryDelay separates bootstrap attempts; zero means 1 minute.
	BootstrapRetryDelay time.Duration
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
	clock Clock
	rng   splitmix     // by value, so the generator is no heap object
	table routingTable // by value: one less pointer and heap object per node
	// pending maps transaction IDs to in-flight queries by value and is
	// allocated lazily on the first outgoing query: a pendingQuery is two
	// function words, and most simulated swarm nodes never issue a query
	// at all (only NATed keepalive pings and restart rejoins do), so the
	// common case carries no map.
	pending map[string]pendingQuery
	stats   Stats
	closed  bool
	stopKA  func() bool
}

type pendingQuery struct {
	done     func(*krpc.Message, error)
	stopTime func() bool
}

// ErrTimeout is delivered to query callbacks when no response arrives.
var ErrTimeout = timeoutError{}

type timeoutError struct{}

func (timeoutError) Error() string { return "dht: query timed out" }

// NewNode creates a node on the given socket and installs its handler. The
// node is immediately able to answer queries; call Bootstrap to populate its
// routing table.
func NewNode(sock netsim.Socket, clock Clock, cfg Config) *Node {
	return newNode(func() *Node { return new(Node) }, sock, clock, cfg)
}

func newNode(alloc func() *Node, sock netsim.Socket, clock Clock, cfg Config) *Node {
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = 2 * time.Second
	}
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
	n.table.init(id, cfg.TableStaleAfter)
	sock.SetHandler(n.handle)
	if cfg.KeepaliveInterval > 0 {
		n.scheduleKeepalive()
	}
	return n
}

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
func (a *NodeArena) NewNode(sock netsim.Socket, clock Clock, cfg Config) *Node {
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
	if n.stopKA != nil {
		n.stopKA()
	}
	for _, p := range n.pending {
		p.stopTime()
	}
	n.pending = nil
	n.sock.Close()
}

// Ping issues a ping query; done receives the response or an error.
func (n *Node) Ping(to netsim.Endpoint, done func(*krpc.Message, error)) {
	tx := n.newTx()
	msg := krpc.NewPing(tx, n.id)
	n.sendQuery(to, msg, done)
}

// FindNode issues a find_node query for target.
func (n *Node) FindNode(to netsim.Endpoint, target krpc.NodeID, done func(*krpc.Message, error)) {
	tx := n.newTx()
	msg := krpc.NewFindNode(tx, n.id, target)
	n.sendQuery(to, msg, done)
}

// Bootstrap performs an iterative find_node toward the node's own ID using
// entry as the first contact, populating the routing table; it retries up to
// BootstrapAttempts times when a round learns nothing. done fires once the
// lookup converges (or retries are exhausted) with the number of nodes
// learned.
func (n *Node) Bootstrap(entry netsim.Endpoint, done func(learned int)) {
	attempts := n.cfg.BootstrapAttempts
	if attempts <= 0 {
		attempts = 5
	}
	delay := n.cfg.BootstrapRetryDelay
	if delay <= 0 {
		delay = time.Minute
	}
	var attempt func(left int)
	attempt = func(left int) {
		n.bootstrapOnce(entry, func(learned int) {
			if learned == 0 && left > 1 && !n.closed {
				n.clock.After(delay, func() { attempt(left - 1) })
				return
			}
			if done != nil {
				done(learned)
			}
		})
	}
	attempt(attempts)
}

func (n *Node) bootstrapOnce(entry netsim.Endpoint, done func(learned int)) {
	seen := map[krpc.NodeID]bool{n.id: true}
	asked := map[netsim.Endpoint]bool{}
	learned := 0
	inFlight := 0
	var step func(eps []netsim.Endpoint)
	finishIfIdle := func() {
		if inFlight == 0 && done != nil {
			d := done
			done = nil
			d(learned)
		}
	}
	step = func(eps []netsim.Endpoint) {
		for _, ep := range eps {
			if asked[ep] || n.closed {
				continue
			}
			asked[ep] = true
			inFlight++
			n.FindNode(ep, n.id, func(m *krpc.Message, err error) {
				inFlight--
				if err == nil && m != nil {
					var next []netsim.Endpoint
					for _, info := range m.Nodes {
						if !seen[info.ID] {
							seen[info.ID] = true
							learned++
							n.table.add(info, n.clock.Now())
							next = append(next, netsim.Endpoint{Addr: info.Addr, Port: info.Port})
						}
					}
					step(next)
				}
				finishIfIdle()
			})
		}
		finishIfIdle()
	}
	step([]netsim.Endpoint{entry})
}

func (n *Node) sendQuery(to netsim.Endpoint, msg *krpc.Message, done func(*krpc.Message, error)) {
	data, err := msg.Marshal()
	if err != nil {
		if done != nil {
			done(nil, err)
		}
		return
	}
	tx := msg.TxID
	stop := n.clock.After(n.cfg.QueryTimeout, func() {
		if p, ok := n.pending[tx]; ok {
			delete(n.pending, tx)
			n.stats.Timeouts++
			if p.done != nil {
				p.done(nil, ErrTimeout)
			}
		}
	})
	if n.pending == nil {
		n.pending = make(map[string]pendingQuery)
	}
	n.pending[tx] = pendingQuery{done: done, stopTime: stop}
	n.stats.QueriesSent++
	n.sock.Send(to, data)
}

// handle processes an incoming datagram.
func (n *Node) handle(from netsim.Endpoint, payload []byte) {
	if n.closed {
		return
	}
	m, err := krpc.Unmarshal(payload)
	if err != nil {
		return // silently ignore garbage, as real nodes do
	}
	switch m.Kind {
	case krpc.KindQuery:
		n.stats.QueriesReceived++
		n.table.add(krpc.NodeInfo{ID: m.ID, Addr: from.Addr, Port: from.Port}, n.clock.Now())
		n.answer(from, m)
	case krpc.KindResponse, krpc.KindError:
		p, ok := n.pending[m.TxID]
		if !ok {
			return // late or spoofed response
		}
		delete(n.pending, m.TxID)
		p.stopTime()
		if m.Kind == krpc.KindResponse {
			n.stats.ResponsesReceived++
			n.table.add(krpc.NodeInfo{ID: m.ID, Addr: from.Addr, Port: from.Port}, n.clock.Now())
			if p.done != nil {
				p.done(m, nil)
			}
		} else if p.done != nil {
			p.done(m, nil)
		}
	}
}

func (n *Node) answer(from netsim.Endpoint, q *krpc.Message) {
	var resp *krpc.Message
	switch q.Method {
	case krpc.MethodPing:
		resp = krpc.NewPingResponse(q.TxID, n.id, n.cfg.Version)
	case krpc.MethodFindNode:
		var buf [BucketSize]krpc.NodeInfo
		nodes := n.table.closest(q.Target, buf[:])
		if n.cfg.Byzantine {
			nodes = n.fabricateNodes()
		}
		resp = krpc.NewFindNodeResponse(q.TxID, n.id, nodes, n.cfg.Version)
	default:
		resp = krpc.NewError(q.TxID, krpc.ErrCodeMethodUnknown, "Method Unknown")
	}
	data, err := resp.Marshal()
	if err != nil {
		return
	}
	n.stats.ResponsesSent++
	n.sock.Send(from, data)
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
	n.stopKA = n.clock.After(n.cfg.KeepaliveInterval, func() {
		if n.closed {
			return
		}
		if info, ok := n.table.randomEntry(n.rng.Intn(1 << 30)); ok {
			n.Ping(netsim.Endpoint{Addr: info.Addr, Port: info.Port}, nil)
		}
		n.scheduleKeepalive()
	})
}

func (n *Node) newTx() string {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], n.rng.Uint32())
	return string(b[:])
}
