// Package netsim is a deterministic discrete-event simulator of an IPv4
// datagram network. It provides virtual time, UDP-like lossy datagram
// delivery with latency, address bindings, and NAT gateways with port
// translation, mapping expiry and configurable filtering behaviour.
//
// The simulator exists so the paper's BitTorrent crawler can be exercised
// against a synthetic Internet: months of simulated crawling execute in
// milliseconds, identically on every run for a given seed.
package netsim

import (
	"math"
	"time"
)

// Epoch is the simulation start time; it matches the start of the paper's
// RIPE Atlas observation window (1 Jan 2019).
var Epoch = time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)

// Clock is a virtual clock driving a single-threaded event loop.
//
// Events scheduled for the same instant fire in a canonical order: timers
// first, in scheduling order, then datagram deliveries ordered by (source
// address, the source's send sequence). A delivery's place therefore depends
// only on the datagram, not on when the event was queued, so a delivery
// scheduled at send time on a one-shard fabric and the same delivery handed
// over at a ShardGroup barrier fire in the same position. Timers keep
// scheduling order because every timer is scheduled by an event of its own
// shard, whose order is itself canonical.
//
// The queue holds values, not pointers: a 4-ary min-heap of (time, key)
// entries, each naming a slot in a pooled event array with a freelist. A slot
// is either a timer callback or a datagram delivery (the receiving network,
// the endpoints and the payload), so the fabric schedules a delivery
// without allocating a closure. Every slot carries a generation that
// increments when it is vacated; heap entries and Timers remember the
// generation they were made under, so a stopped event is skipped when it
// surfaces and a stale Timer can never cancel the slot's next occupant.
type Clock struct {
	now   int64 // ns since Epoch
	heap  []qent
	slots []eslot
	free  []int32 // vacated slot indices
	seq   uint64  // next timer sequence number
	live  int     // events scheduled and neither fired nor stopped
}

// qent is a heap entry: the ordering key and the slot it fires.
type qent struct {
	at   int64  // ns since Epoch
	key  uint64 // same-instant order: the timer sequence, or deliveryKey
	slot int32
	gen  uint32
}

func (e qent) before(o qent) bool {
	return e.at < o.at || (e.at == o.at && e.key < o.key)
}

// deliveryBit sets every delivery key above every timer key.
const deliveryBit = 1 << 63

// deliveryKey orders same-instant deliveries by source address, then by the
// source's send sequence (unique for a source's first 2^31 datagrams).
func deliveryKey(from Endpoint, seq uint64) uint64 {
	return deliveryBit | uint64(from.Addr)<<31 | seq&(1<<31-1)
}

// eslot is one pooled event: a timer's fn, or, when net is set, a datagram
// to hand to net.deliver.
type eslot struct {
	fn       func()
	net      *Network
	from, to Endpoint
	seq      uint64 // the source's send sequence number
	payload  []byte
	gen      uint32
}

// NewClock returns a clock positioned at Epoch.
func NewClock() *Clock {
	return &Clock{}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time { return Epoch.Add(time.Duration(c.now)) }

// sinceEpoch converts t to the queue's int64 key, saturating at the ends
// of the int64 range.
func sinceEpoch(t time.Time) int64 { return int64(t.Sub(Epoch)) }

// Timer is a handle to a scheduled event; Stop cancels it. The zero Timer
// is valid and stops nothing.
type Timer struct {
	c    *Clock
	slot int32
	gen  uint32
}

// Stop cancels the timer; it reports whether the event had not yet fired.
func (t Timer) Stop() bool {
	if t.c == nil || t.c.slots[t.slot].gen != t.gen {
		return false
	}
	t.c.release(t.slot)
	return true
}

// After schedules fn to run d after the current virtual time.
func (c *Clock) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	at := c.now + int64(d)
	if at < c.now {
		at = math.MaxInt64
	}
	return c.at(at, fn)
}

// At schedules fn at an absolute virtual time; times in the past fire on the
// next step.
func (c *Clock) At(t time.Time, fn func()) Timer {
	return c.at(sinceEpoch(t), fn)
}

func (c *Clock) at(at int64, fn func()) Timer {
	idx, s := c.schedule(at, c.seq)
	c.seq++
	s.fn = fn
	return Timer{c: c, slot: idx, gen: s.gen}
}

// deliverAt schedules the delivery of datagram seq of from on n at at (ns
// since Epoch).
func (c *Clock) deliverAt(at int64, n *Network, from, to Endpoint, seq uint64, payload []byte) {
	_, s := c.schedule(at, deliveryKey(from, seq))
	s.net, s.from, s.to, s.seq, s.payload = n, from, to, seq, payload
}

// schedule takes a slot and queues it at at (clamped to now) under the
// given same-instant key. The returned pointer is valid until the next
// schedule call.
func (c *Clock) schedule(at int64, key uint64) (int32, *eslot) {
	if at < c.now {
		at = c.now
	}
	var idx int32
	if k := len(c.free); k > 0 {
		idx = c.free[k-1]
		c.free = c.free[:k-1]
	} else {
		c.slots = append(c.slots, eslot{})
		idx = int32(len(c.slots) - 1)
	}
	s := &c.slots[idx]
	c.push(qent{at: at, key: key, slot: idx, gen: s.gen})
	c.live++
	return idx, s
}

// release vacates a slot whose event fired or was stopped.
func (c *Clock) release(idx int32) {
	s := &c.slots[idx]
	*s = eslot{gen: s.gen + 1}
	c.free = append(c.free, idx)
	c.live--
}

// Step runs the earliest pending event, advancing the clock to its time.
// It reports whether an event ran.
func (c *Clock) Step() bool {
	for len(c.heap) > 0 {
		e := c.pop()
		s := &c.slots[e.slot]
		if s.gen != e.gen {
			continue // stopped
		}
		c.now = e.at
		fn, net, from, to, seq, payload := s.fn, s.net, s.from, s.to, s.seq, s.payload
		c.release(e.slot)
		if net != nil {
			net.deliver(from, to, seq, payload)
		} else {
			fn()
		}
		return true
	}
	return false
}

// RunUntil executes events until the queue is empty or the next event lies
// beyond t; the clock finishes at t (or later if an event fired exactly
// there). It returns the number of events run.
func (c *Clock) RunUntil(t time.Time) int {
	return c.runTo(sinceEpoch(t), true)
}

// runTo runs every event due before end (and at end when inclusive), then
// sets the clock to end unless it is already later.
func (c *Clock) runTo(end int64, inclusive bool) int {
	n := 0
	for c.due(end, inclusive) {
		c.Step()
		n++
	}
	if c.now < end {
		c.now = end
	}
	return n
}

// due reports whether an event is pending before end (or at end when
// inclusive).
func (c *Clock) due(end int64, inclusive bool) bool {
	e, ok := c.peek()
	return ok && (e.at < end || inclusive && e.at == end)
}

// RunFor advances the clock by d, running every event due in that window.
func (c *Clock) RunFor(d time.Duration) int {
	return c.RunUntil(c.Now().Add(d))
}

// Drain runs events until none remain or limit events have run; limit <= 0
// means no limit. It returns the number of events run.
func (c *Clock) Drain(limit int) int {
	n := 0
	for c.Step() {
		n++
		if limit > 0 && n >= limit {
			break
		}
	}
	return n
}

// Pending returns the number of scheduled (uncancelled) events.
func (c *Clock) Pending() int { return c.live }

// peek returns the earliest live entry, discarding stopped ones that
// surface on the way.
func (c *Clock) peek() (qent, bool) {
	for len(c.heap) > 0 {
		e := c.heap[0]
		if c.slots[e.slot].gen == e.gen {
			return e, true
		}
		c.pop()
	}
	return qent{}, false
}

func (c *Clock) push(e qent) {
	h := append(c.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	c.heap = h
}

func (c *Clock) pop() qent {
	h := c.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			kid := 4*i + 1
			if kid >= n {
				break
			}
			end := kid + 4
			if end > n {
				end = n
			}
			for j := kid + 1; j < end; j++ {
				if h[j].before(h[kid]) {
					kid = j
				}
			}
			if !h[kid].before(last) {
				break
			}
			h[i] = h[kid]
			i = kid
		}
		h[i] = last
	}
	c.heap = h
	return top
}
