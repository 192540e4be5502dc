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
// The queue holds values, not pointers: (time, key) entries, each naming a
// slot in a pooled event array with a freelist. A slot is either a timer (a
// Target and its argument) or a datagram delivery (the receiving network,
// the endpoints and the payload), so neither a recurring timer whose Target
// is a long-lived object nor a delivery allocates a closure. Every slot has
// a generation that increments when it is vacated; queue entries and Timers
// remember the generation they were made under, so a stopped event is
// skipped when it surfaces and a stale Timer can never cancel the slot's
// next occupant. Generations sit in their own dense array beside the slots,
// so telling a live entry from a stopped one loads four bytes instead of a
// slot's cache line.
//
// The entries live in one queue of two parts. Nearly every timer uses one of
// a few fixed delays (a query timeout, a keepalive), and the timers of one
// delay are armed in (time, key) order, because the clock never goes back
// and the key only grows: each such class is already a sorted FIFO, so it
// sits in a ring of its own (a power-of-two circular buffer) and is never
// sifted. A delay's class is learned from AfterEvent: a delay armed without
// a ring is written to a round-robin memory of the last maxRings such
// delays, and claims a ring when it is armed again while still remembered,
// so a one-off delay (the swarm's random restart offsets) passes to the
// heap without claiming one. At most maxRings rings are claimed, for the
// clock's life; later delays go to the heap. The heap, a 4-ary min-heap,
// keeps deliveries, absolute arms and those delays. An event leaves from
// whichever part holds the earliest (time, key) entry, the heap top or the
// earliest ring head (which the clock tracks); keys are unique, so the
// firing order does not depend on where an entry was queued. A stopped ring
// entry is dropped in O(1) when it reaches its ring's head.
type Clock struct {
	now     int64  // ns since Epoch
	heap    []qent // deliveries, absolute arms and delays without a ring
	rings   [maxRings]ring
	nrings  int             // rings[:nrings] are claimed
	early   int             // the ring with the earliest head; empty only when all are
	missed  [maxRings]int64 // delays recently armed without a ring, round-robin
	nmissed int             // delays ever written to missed
	slots   []eslot
	gens    []uint32 // gens[i] is slots[i]'s generation
	free    []int32  // vacated slot indices
	seq     uint64   // next timer sequence number
	live    int      // events scheduled and neither fired nor stopped
}

// maxRings bounds the fixed-delay classes that get a ring: the crawl arms
// four delays for nearly all of its timers.
const maxRings = 8

// ring is the FIFO of one fixed-delay class: a power-of-two circular buffer
// of the class's entries in (time, key) order.
type ring struct {
	delay int64 // the AfterEvent delay of every entry, in ns
	buf   []qent
	head  int // index of the earliest entry
	n     int // entries queued
}

// push appends e, doubling the buffer when it is full.
func (q *ring) push(e qent) {
	if q.n == len(q.buf) {
		buf := make([]qent, max(2*len(q.buf), 16))
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = e
	q.n++
}

// qent is a queue entry: the ordering key and the slot it fires.
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
	r := c.ringFor(int64(d))
	if r < 0 {
		return c.at(at, t, arg)
	}
	idx := c.take()
	c.ringPush(r, qent{at: at, key: c.seq, slot: idx, gen: c.gens[idx]})
	return c.arm(idx, t, arg)
}

// ringFor returns the index of delay d's ring. A delay without one claims a
// free ring if it is in the memory of recent misses, and is otherwise
// written there; -1 sends the timer to the heap.
func (c *Clock) ringFor(d int64) int {
	for i := range c.rings[:c.nrings] {
		if c.rings[i].delay == d {
			return i
		}
	}
	if c.nrings == maxRings {
		return -1
	}
	for _, m := range c.missed[:min(c.nmissed, maxRings)] {
		if m == d {
			c.rings[c.nrings].delay = d
			c.nrings++
			return c.nrings - 1
		}
	}
	c.missed[c.nmissed%maxRings] = d
	c.nmissed++
	return -1
}

// ringPush appends e to ring r. Every entry of r is before e, so e can
// become the earliest ring head only when r was empty.
func (c *Clock) ringPush(r int, e qent) {
	q := &c.rings[r]
	if q.n == 0 {
		if h := &c.rings[c.early]; h.n == 0 || e.before(h.buf[h.head]) {
			c.early = r
		}
	}
	q.push(e)
}

// at schedules t.Fire(arg) on the heap at an absolute time (ns since
// Epoch); times in the past fire on the next step.
func (c *Clock) at(at int64, t Target, arg uint64) Timer {
	idx, _ := c.schedule(at, c.seq)
	return c.arm(idx, t, arg)
}

// arm makes the queued slot idx a timer under the next sequence number.
func (c *Clock) arm(idx int32, t Target, arg uint64) Timer {
	c.seq++
	s := &c.slots[idx]
	s.target, s.seq = t, arg
	return Timer{c: c, slot: idx, gen: c.gens[idx]}
}

// deliverAt schedules the delivery of datagram seq of from on n at at (ns
// since Epoch).
func (c *Clock) deliverAt(at int64, n *Network, from, to Endpoint, seq uint64, payload []byte) {
	_, s := c.schedule(at, deliveryKey(from, seq))
	s.target, s.from, s.to, s.seq, s.payload = (*deliveries)(n), from, to, seq, payload
}

// schedule takes a slot and queues it on the heap at at (clamped to now)
// under the given same-instant key. The returned pointer is valid until the
// next slot is taken.
func (c *Clock) schedule(at int64, key uint64) (int32, *eslot) {
	if at < c.now {
		at = c.now
	}
	idx := c.take()
	c.push(qent{at: at, key: key, slot: idx, gen: c.gens[idx]})
	return idx, &c.slots[idx]
}

// take returns a vacant slot, from the freelist or a new one, and counts it
// live.
func (c *Clock) take() int32 {
	c.live++
	if k := len(c.free); k > 0 {
		idx := c.free[k-1]
		c.free = c.free[:k-1]
		return idx
	}
	c.slots = append(c.slots, eslot{})
	c.gens = append(c.gens, 0)
	return int32(len(c.slots) - 1)
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
	for {
		e, src, ok := c.first()
		if !ok {
			return false
		}
		c.drop(src)
		if c.gens[e.slot] == e.gen {
			c.fire(e)
			return true
		}
	}
}

// fire runs the live event e, which has left the queue.
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
// sets the clock to end unless it is already later. Each due entry is
// dropped once; stopped entries past end stay queued until they surface.
func (c *Clock) runTo(end int64, inclusive bool) int {
	n := 0
	for {
		e, src, ok := c.first()
		if !ok || e.at > end || e.at == end && !inclusive {
			break
		}
		c.drop(src)
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
	for {
		e, src, ok := c.first()
		if !ok || c.gens[e.slot] == e.gen {
			return e, ok
		}
		c.drop(src)
	}
}

// first returns the earliest queued entry, live or stopped, and where it
// sits: ring src, or the heap when src is -1. ok is false when the queue is
// empty.
func (c *Clock) first() (e qent, src int, ok bool) {
	src = -1
	if len(c.heap) > 0 {
		e, ok = c.heap[0], true
	}
	if q := &c.rings[c.early]; q.n > 0 {
		if h := q.buf[q.head]; !ok || h.before(e) {
			e, src, ok = h, c.early, true
		}
	}
	return e, src, ok
}

// drop removes the entry first found at src. A ring's head then moves on,
// so the earliest ring is found again.
func (c *Clock) drop(src int) {
	if src < 0 {
		c.pop()
		return
	}
	q := &c.rings[src]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	for i := range c.rings[:c.nrings] {
		if r := &c.rings[i]; r.n > 0 {
			if h := &c.rings[c.early]; h.n == 0 || r.buf[r.head].before(h.buf[h.head]) {
				c.early = i
			}
		}
	}
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
