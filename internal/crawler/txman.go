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
	// slot is the crawler's port slot for To.
	slot uint32
}

// TxManager correlates KRPC transactions with the node each query went to.
// A crawler legitimately has several queries outstanding to the same node at
// once — a discovery get_nodes and a verification bt_ping, or pings to two
// ports of one NATed address — so correlation is per transaction. The
// per-node outstanding count that MaxPerNode bounds is the crawler's, kept
// in the node's port slot.
//
// Pending transactions live in a ring indexed by the low bits of their
// sequential IDs: the ring doubles whenever a new ID would land on a live
// one, so it spans the IDs between the oldest and newest outstanding query
// and a lookup is one index and one compare.
//
// It also owns the late-reply window: transactions whose query timed out are
// remembered (bounded, FIFO-evicted) so a response straggling in afterwards
// is recognised and counted instead of silently dropped.
//
// A ring entry's record, its Data buffer included, is reused by the next
// transaction that lands on it, so a warm crawl allocates nothing per query.
//
// The manager is deliberately not goroutine-safe: crawler code is
// single-threaded by design (simulated swarms run on one event loop; real
// sockets serialise through the swarm mutex).
type TxManager struct {
	ring     []txEntry // length 0 or a power of two
	inFlight int
	lateTx   map[uint64]netsim.Endpoint
	// lateOrder is the late window's IDs in a ring of lateMax, the oldest
	// at lateHead once the ring is full.
	lateOrder []uint64
	lateHead  int
	lateMax   int
}

type txEntry struct {
	tx   Tx
	live bool
}

// NewTxManager returns a manager whose late-reply window remembers up to
// lateWindow timed-out transactions (the oldest are forgotten first).
func NewTxManager(lateWindow int) *TxManager {
	if lateWindow <= 0 {
		lateWindow = lateWindowMax
	}
	return &TxManager{
		lateTx:  make(map[uint64]netsim.Endpoint),
		lateMax: lateWindow,
	}
}

// entry returns the ring entry for id.
func (m *TxManager) entry(id uint64) *txEntry {
	if len(m.ring) == 0 {
		return nil
	}
	return &m.ring[id&uint64(len(m.ring)-1)]
}

// Register adds a freshly sent query to the outstanding set and returns
// the manager's record of it, which holds its own copy of t.Data. The
// pointer is valid until the next Register; the record itself lives until
// the transaction is resolved, failed or cancelled. Registering an ID that
// is still outstanding replaces its record.
func (m *TxManager) Register(t Tx) *Tx {
	e := m.entry(t.ID)
	for e == nil || e.live && e.tx.ID != t.ID {
		m.grow()
		e = m.entry(t.ID)
	}
	if !e.live {
		m.inFlight++
	}
	data := append(e.tx.Data[:0], t.Data...)
	e.tx = t
	e.tx.Data = data
	e.live = true
	return &e.tx
}

// grow doubles the ring. Live IDs are distinct modulo the old length, so
// they stay distinct modulo twice it.
func (m *TxManager) grow() {
	ring := make([]txEntry, max(2*len(m.ring), 64))
	mask := uint64(len(ring) - 1)
	for _, e := range m.ring {
		if e.live {
			ring[e.tx.ID&mask] = e
		}
	}
	m.ring = ring
}

// finish removes an outstanding transaction, returning a copy of its record
// without Data.
func (m *TxManager) finish(id uint64) (Tx, bool) {
	e := m.entry(id)
	if e == nil || !e.live || e.tx.ID != id {
		return Tx{}, false
	}
	e.live = false
	m.inFlight--
	t := e.tx
	t.Data = nil
	return t, true
}

// Get returns the outstanding transaction without resolving it (retry and
// timeout paths peek first). The pointer is valid until the next Register.
func (m *TxManager) Get(id uint64) (*Tx, bool) {
	e := m.entry(id)
	if e == nil || !e.live || e.tx.ID != id {
		return nil, false
	}
	return &e.tx, true
}

// Resolve removes a transaction whose response arrived and cancels its
// deadline timer.
func (m *TxManager) Resolve(id uint64) (Tx, bool) {
	t, ok := m.finish(id)
	if ok {
		t.Timer.Stop()
	}
	return t, ok
}

// Fail removes a transaction whose deadline passed with every retry
// exhausted (the timer has already fired, so no Stop) and remembers it in
// the late-reply window.
func (m *TxManager) Fail(id uint64) (Tx, bool) {
	t, ok := m.finish(id)
	if !ok {
		return t, false
	}
	if len(m.lateOrder) < m.lateMax {
		m.lateOrder = append(m.lateOrder, id)
	} else {
		delete(m.lateTx, m.lateOrder[m.lateHead])
		m.lateOrder[m.lateHead] = id
		m.lateHead = (m.lateHead + 1) % m.lateMax
	}
	m.lateTx[id] = t.To
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
func (m *TxManager) InFlight() int { return m.inFlight }

// CancelAll stops every outstanding deadline and clears the manager; the
// late window is kept (a stopping crawler still counts stragglers).
func (m *TxManager) CancelAll() {
	for i := range m.ring {
		if e := &m.ring[i]; e.live {
			e.tx.Timer.Stop()
			e.live = false
		}
	}
	m.inFlight = 0
}
