package crawler

import (
	"github.com/reuseblock/reuseblock/internal/dht"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

// Tx is one outstanding query transaction: its ID, the node it went to,
// and everything needed to retransmit or score it. The crawler keeps a Tx
// alive across retries; it is released when a response arrives or the last
// retry times out.
type Tx struct {
	// ID is the crawler's transaction sequence number; its 8 big-endian
	// bytes are the wire transaction ID.
	ID     uint64
	To     netsim.Endpoint
	IsPing bool
	// Data is the marshalled query, kept for retransmission.
	Data []byte
	// Attempts counts transmissions so far (1 after the first send).
	Attempts int
	// Timer is the currently armed response deadline or retry backoff.
	Timer dht.Timer
}

// TxManager correlates KRPC transactions with the node each query went to.
// A crawler legitimately has several queries outstanding to the same node at
// once — a discovery get_nodes and a verification bt_ping, or pings to two
// ports of one NATed address — so correlation is per transaction, with a
// per-node outstanding count layered on top for politeness bounds and
// in-flight accounting (the fleet's bounded in-flight request queue).
//
// It also owns the late-reply window: transactions whose query timed out are
// remembered (bounded, FIFO-evicted) so a response straggling in afterwards
// is recognised and counted instead of silently dropped.
//
// The records of finished transactions, Data buffers included, are reused
// for new ones, so a warm crawl allocates nothing per query.
//
// The manager is deliberately not goroutine-safe: crawler code is
// single-threaded by design (simulated swarms run on one event loop; real
// sockets serialise through the swarm mutex).
type TxManager struct {
	pending map[uint64]*Tx
	perNode map[netsim.Endpoint]int
	lateTx  map[uint64]netsim.Endpoint
	// lateOrder is the late window's FIFO eviction order.
	lateOrder []uint64
	lateMax   int
	free      []*Tx // records of finished transactions, for Register
}

// NewTxManager returns a manager whose late-reply window remembers up to
// lateWindow timed-out transactions (the oldest are forgotten first).
func NewTxManager(lateWindow int) *TxManager {
	if lateWindow <= 0 {
		lateWindow = lateWindowMax
	}
	return &TxManager{
		pending: make(map[uint64]*Tx),
		perNode: make(map[netsim.Endpoint]int),
		lateTx:  make(map[uint64]netsim.Endpoint),
		lateMax: lateWindow,
	}
}

// Register adds a freshly sent query to the outstanding set and returns
// the manager's record of it, which holds its own copy of t.Data and stays
// valid until the transaction is resolved, failed or cancelled.
func (m *TxManager) Register(t Tx) *Tx {
	var p *Tx
	if k := len(m.free); k > 0 {
		p, m.free = m.free[k-1], m.free[:k-1]
	} else {
		p = new(Tx)
	}
	data := append(p.Data[:0], t.Data...)
	*p = t
	p.Data = data
	m.pending[t.ID] = p
	m.perNode[t.To]++
	return p
}

// finish removes an outstanding transaction and recycles its record,
// returning a copy without Data.
func (m *TxManager) finish(id uint64) (Tx, bool) {
	p, ok := m.pending[id]
	if !ok {
		return Tx{}, false
	}
	delete(m.pending, id)
	m.releaseNode(p.To)
	m.free = append(m.free, p)
	t := *p
	t.Data = nil
	return t, true
}

// Get returns the outstanding transaction without resolving it (retry and
// timeout paths peek first).
func (m *TxManager) Get(id uint64) (*Tx, bool) {
	t, ok := m.pending[id]
	return t, ok
}

// Resolve removes a transaction whose response arrived, cancelling its
// deadline timer and releasing its per-node slot.
func (m *TxManager) Resolve(id uint64) (Tx, bool) {
	t, ok := m.finish(id)
	if ok {
		t.Timer.Stop()
	}
	return t, ok
}

// Fail removes a transaction whose deadline passed with every retry
// exhausted (the timer has already fired, so no Stop), releases its
// per-node slot, and remembers it in the late-reply window.
func (m *TxManager) Fail(id uint64) (Tx, bool) {
	t, ok := m.finish(id)
	if !ok {
		return t, false
	}
	if len(m.lateOrder) >= m.lateMax {
		delete(m.lateTx, m.lateOrder[0])
		m.lateOrder = m.lateOrder[1:]
	}
	m.lateTx[id] = t.To
	m.lateOrder = append(m.lateOrder, id)
	return t, true
}

// ResolveLate pops a transaction from the late-reply window, returning the
// node its query went to. A transaction resolves late at most once.
func (m *TxManager) ResolveLate(id uint64) (netsim.Endpoint, bool) {
	to, ok := m.lateTx[id]
	if ok {
		delete(m.lateTx, id)
	}
	return to, ok
}

// InFlight returns the number of outstanding transactions — the fleet's
// bounded in-flight queue consults it before admitting new sends.
func (m *TxManager) InFlight() int { return len(m.pending) }

// Outstanding returns how many queries are currently outstanding to one
// node — the per-node correlation count.
func (m *TxManager) Outstanding(ep netsim.Endpoint) int { return m.perNode[ep] }

// CancelAll stops every outstanding deadline and clears the manager; the
// late window is kept (a stopping crawler still counts stragglers).
func (m *TxManager) CancelAll() {
	for _, t := range m.pending {
		t.Timer.Stop()
	}
	m.pending = make(map[uint64]*Tx)
	m.perNode = make(map[netsim.Endpoint]int)
}

func (m *TxManager) releaseNode(ep netsim.Endpoint) {
	if n := m.perNode[ep]; n <= 1 {
		delete(m.perNode, ep)
	} else {
		m.perNode[ep] = n - 1
	}
}
