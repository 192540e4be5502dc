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
// is either a timer (a Target and its argument) or a datagram delivery (the
// receiving network, the endpoints and the payload), so neither a recurring
// timer whose Target is a long-lived object nor a delivery allocates a
// closure. Every slot has a generation that increments when it is vacated;
// heap entries and Timers remember the generation they were made under, so
// a stopped event is skipped when it surfaces and a stale Timer can never
// cancel the slot's next occupant. Generations sit in their own dense array
// beside the slots, so telling a live entry from a stopped one loads four
// bytes instead of a slot's cache line.
type Clock struct {
	now   int64 // ns since Epoch
	heap  []qent
	slots []eslot
	gens  []uint32 // gens[i] is slots[i]'s generation
	free  []int32  // vacated slot indices
	seq   uint64   // next timer sequence number
	live  int      // events scheduled and neither fired nor stopped
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

// eslot is one pooled event: a timer's target.Fire(seq), or, when target
// is a *deliveries, a datagram to hand to its Network's deliver. It is 64
// bytes, one cache line.
type eslot struct {
	target   Target
	from, to Endpoint
	seq      uint64 // the source's send sequence number, or the timer's argument
	payload  []byte
}

// Target receives timer events. A long-lived object (a DHT node, a
// crawler) implements it once and tells its timers apart by the argument,
// so arming a timer stores two words and allocates nothing.
type Target interface {
	Fire(arg uint64)
}

// deliveries is a Network as the target of its datagram slots, so a slot
// needs no field of its own for the network: fire hands the slot's datagram
// to deliver and never calls Fire.
type deliveries Network

func (*deliveries) Fire(uint64) { panic("netsim: delivery fired as a timer") }

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
	if t.c == nil || t.c.gens[t.slot] != t.gen {
		return false
	}
	t.c.release(t.slot)
	return true
}

// AfterEvent schedules t.Fire(arg) to run d after the current virtual time;
// a negative d fires on the next step. Timers due at one instant fire in
// scheduling order, whatever their targets.
func (c *Clock) AfterEvent(d time.Duration, t Target, arg uint64) Timer {
	if d < 0 {
		d = 0
	}
	at := c.now + int64(d)
	if at < c.now {
		at = math.MaxInt64
	}
	return c.at(at, t, arg)
}

// at schedules t.Fire(arg) at an absolute time (ns since Epoch); times in
// the past fire on the next step.
func (c *Clock) at(at int64, t Target, arg uint64) Timer {
	idx, s := c.schedule(at, c.seq)
	c.seq++
	s.target, s.seq = t, arg
	return Timer{c: c, slot: idx, gen: c.gens[idx]}
}

// deliverAt schedules the delivery of datagram seq of from on n at at (ns
// since Epoch).
func (c *Clock) deliverAt(at int64, n *Network, from, to Endpoint, seq uint64, payload []byte) {
	_, s := c.schedule(at, deliveryKey(from, seq))
	s.target, s.from, s.to, s.seq, s.payload = (*deliveries)(n), from, to, seq, payload
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
		c.gens = append(c.gens, 0)
		idx = int32(len(c.slots) - 1)
	}
	c.push(qent{at: at, key: key, slot: idx, gen: c.gens[idx]})
	c.live++
	return idx, &c.slots[idx]
}

// release vacates a slot whose event fired or was stopped.
func (c *Clock) release(idx int32) {
	c.slots[idx] = eslot{}
	c.gens[idx]++
	c.free = append(c.free, idx)
	c.live--
}

// Step runs the earliest pending event, advancing the clock to its time.
// It reports whether an event ran.
func (c *Clock) Step() bool {
	for len(c.heap) > 0 {
		if e := c.pop(); c.gens[e.slot] == e.gen {
			c.fire(e)
			return true
		}
	}
	return false
}

// fire runs the live event e, which has left the heap.
func (c *Clock) fire(e qent) {
	c.now = e.at
	s := &c.slots[e.slot]
	target, from, to, seq, payload := s.target, s.from, s.to, s.seq, s.payload
	c.release(e.slot)
	if d, ok := target.(*deliveries); ok {
		(*Network)(d).deliver(from, to, seq, payload)
	} else {
		target.Fire(seq)
	}
}

// RunUntil executes events until the queue is empty or the next event lies
// beyond t; the clock finishes at t (or later if an event fired exactly
// there). It returns the number of events run.
func (c *Clock) RunUntil(t time.Time) int {
	return c.runTo(sinceEpoch(t), true)
}

// runTo runs every event due before end (and at end when inclusive), then
// sets the clock to end unless it is already later. Each due entry is popped
// once; stopped entries past end stay in the heap until they surface.
func (c *Clock) runTo(end int64, inclusive bool) int {
	n := 0
	for len(c.heap) > 0 {
		e := c.heap[0]
		if e.at > end || e.at == end && !inclusive {
			break
		}
		c.pop()
		if c.gens[e.slot] == e.gen {
			c.fire(e)
			n++
		}
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
		if c.gens[e.slot] == e.gen {
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

// pop removes the heap top. It sifts bottom-up (Floyd): the hole left at
// the root moves down along the smallest children to a leaf without
// comparing against last, which a late event rarely beats, and last then
// sifts up from there, usually not at all.
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
			for j, end := kid+1, min(kid+4, n); j < end; j++ {
				if h[j].before(h[kid]) {
					kid = j
				}
			}
			h[i] = h[kid]
			i = kid
		}
		for i > 0 {
			p := (i - 1) / 4
			if !last.before(h[p]) {
				break
			}
			h[i] = h[p]
			i = p
		}
		h[i] = last
	}
	c.heap = h
	return top
}
