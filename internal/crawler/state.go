package crawler

import (
	"cmp"
	"math"
	"slices"

	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

// The crawler's per-address state is a table of dense uint32 handles, one
// per address it has seen or queued, with every field a pointer-free column
// indexed by handle, so the state costs the garbage collector nothing to
// scan and one map probe per sighting to find. Each of an address's ports
// is a slot in one shared slot column; the discovery queue and the
// transaction records refer to slots by index, so nothing after the first
// lookup hashes an endpoint. Handles and slots are never freed: a crawl
// only ever learns addresses.

// Address flags.
const (
	addrNATed   = 1 << iota // confirmed NATed by some ping round
	addrInRound             // a ping round is collecting replies for it
)

// Port slot flags.
const (
	slotSeen    = 1 << iota // observed in a sighting, not only queued
	slotQueued              // on the discovery queue
	slotEvicted             // left the frontier after EvictAfter failures
	slotReplied             // answered this ping round; replyID holds its ID
)

// neverContacted is the last contact of an address the crawler has not
// queried since it was first seen.
const neverContacted = math.MinInt64

// portSlot is everything the crawler keeps per (address, port).
type portSlot struct {
	// replyID is the node ID that answered this ping round (slotReplied).
	replyID krpc.NodeID
	// lastID is the node ID of the last sighting (slotSeen): a repeated
	// sighting costs one compare here, not a probe of the ID set.
	lastID krpc.NodeID
	handle uint32
	// failures counts consecutive failed queries, up to EvictAfter.
	failures uint32
	port     uint16
	flags    uint8
}

// portList is one address's slots, sorted by port. Up to two live inline;
// a longer list lives in the table's slab at inl[0], with capacity inl[1].
type portList struct {
	n    uint32 // slots in the list
	seen uint32 // slots with slotSeen; an address is observed once > 0
	inl  [2]uint32
}

// addrTable is the crawler's per-address and per-port state.
type addrTable struct {
	index map[iputil.Addr]uint32
	// Columns indexed by handle.
	addrs []iputil.Addr
	ports []portList
	// lastContact and firstConfirm are nanoseconds since the crawler's
	// epoch; lastContact is neverContacted until the first query after the
	// address was seen.
	lastContact  []int64
	firstConfirm []int64
	maxUsers     []int32
	flags        []uint8

	slots []portSlot
	slab  []uint32 // spilled port lists

	observed int      // handles with a seen port
	order    []uint32 // handles sorted by address, as of the last walk
}

func newAddrTable() addrTable {
	return addrTable{index: make(map[iputil.Addr]uint32)}
}

// handleFor returns a's handle, giving it one if it has none.
func (t *addrTable) handleFor(a iputil.Addr) uint32 {
	if h, ok := t.index[a]; ok {
		return h
	}
	h := uint32(len(t.addrs))
	t.index[a] = h
	t.addrs = append(t.addrs, a)
	t.ports = append(t.ports, portList{})
	t.lastContact = append(t.lastContact, neverContacted)
	t.firstConfirm = append(t.firstConfirm, 0)
	t.maxUsers = append(t.maxUsers, 0)
	t.flags = append(t.flags, 0)
	return h
}

// portsOf returns h's slots, sorted by port. The slice is valid until the
// table next grows.
func (t *addrTable) portsOf(h uint32) []uint32 {
	pl := &t.ports[h]
	if pl.n <= uint32(len(pl.inl)) {
		return pl.inl[:pl.n]
	}
	return t.slab[pl.inl[0] : pl.inl[0]+pl.n]
}

// slotFor returns the slot of ep, creating its handle and slot as needed.
func (t *addrTable) slotFor(ep netsim.Endpoint) uint32 {
	h := t.handleFor(ep.Addr)
	ports := t.portsOf(h)
	i := 0
	for ; i < len(ports); i++ {
		p := t.slots[ports[i]].port
		if p == ep.Port {
			return ports[i]
		}
		if p > ep.Port {
			break
		}
	}
	s := uint32(len(t.slots))
	t.slots = append(t.slots, portSlot{handle: h, port: ep.Port})
	t.insertPort(h, i, s)
	return s
}

// insertPort puts slot s at position i of h's port list.
func (t *addrTable) insertPort(h uint32, i int, s uint32) {
	pl := &t.ports[h]
	n := pl.n
	if n < uint32(len(pl.inl)) {
		copy(pl.inl[i+1:n+1], pl.inl[i:n])
		pl.inl[i] = s
		pl.n++
		return
	}
	if n == uint32(len(pl.inl)) {
		// Spill the inline pair into a slab run of twice its size.
		off := uint32(len(t.slab))
		t.slab = append(t.slab, pl.inl[0], pl.inl[1], 0, 0)
		pl.inl = [2]uint32{off, 4}
	} else if n == pl.inl[1] {
		// Move the full run to the slab's end at twice its capacity; the
		// old run is left unused.
		off := uint32(len(t.slab))
		t.slab = append(t.slab, t.slab[pl.inl[0]:pl.inl[0]+n]...)
		t.slab = append(t.slab, make([]uint32, n)...)
		pl.inl = [2]uint32{off, 2 * n}
	}
	run := t.slab[pl.inl[0] : pl.inl[0]+n+1]
	copy(run[i+1:], run[i:n])
	run[i] = s
	pl.n++
}

// see marks slot s observed.
func (t *addrTable) see(s uint32) {
	sl := &t.slots[s]
	if sl.flags&slotSeen != 0 {
		return
	}
	sl.flags |= slotSeen
	pl := &t.ports[sl.handle]
	if pl.seen == 0 {
		t.observed++
	}
	pl.seen++
}

// endpoint returns the endpoint of slot s.
func (t *addrTable) endpoint(s uint32) netsim.Endpoint {
	sl := &t.slots[s]
	return netsim.Endpoint{Addr: t.addrs[sl.handle], Port: sl.port}
}

// lookup returns the slot of ep if it has one.
func (t *addrTable) lookup(ep netsim.Endpoint) (uint32, bool) {
	h, ok := t.index[ep.Addr]
	if !ok {
		return 0, false
	}
	for _, s := range t.portsOf(h) {
		if t.slots[s].port == ep.Port {
			return s, true
		}
	}
	return 0, false
}

// sorted returns every handle in address order, sorting again only when
// handles were added since the last call.
func (t *addrTable) sorted() []uint32 {
	if len(t.order) == len(t.addrs) {
		return t.order
	}
	for h := len(t.order); h < len(t.addrs); h++ {
		t.order = append(t.order, uint32(h))
	}
	slices.SortFunc(t.order, func(a, b uint32) int { return cmp.Compare(t.addrs[a], t.addrs[b]) })
	return t.order
}
