package netsim

import (
	"testing"
	"time"
	"unsafe"
)

func TestClockOrdering(t *testing.T) {
	c := NewClock()
	var order []int
	c.AfterEvent(2*time.Second, fn(func() { order = append(order, 2) }), 0)
	c.AfterEvent(1*time.Second, fn(func() { order = append(order, 1) }), 0)
	c.AfterEvent(3*time.Second, fn(func() { order = append(order, 3) }), 0)
	c.Drain(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if got := c.Now().Sub(Epoch); got != 3*time.Second {
		t.Errorf("final time = %v", got)
	}
}

func TestClockSameInstantFIFO(t *testing.T) {
	c := NewClock()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		c.AfterEvent(time.Second, fn(func() { order = append(order, i) }), 0)
	}
	c.Drain(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events out of order: %v", order)
		}
	}
}

func TestClockNestedScheduling(t *testing.T) {
	c := NewClock()
	fired := false
	c.AfterEvent(time.Second, fn(func() {
		c.AfterEvent(time.Second, fn(func() { fired = true }), 0)
	}), 0)
	c.RunFor(1500 * time.Millisecond)
	if fired {
		t.Error("inner event fired too early")
	}
	c.RunFor(time.Second)
	if !fired {
		t.Error("inner event did not fire")
	}
}

func TestClockRunUntilAdvancesTime(t *testing.T) {
	c := NewClock()
	target := Epoch.Add(time.Hour)
	if n := c.RunUntil(target); n != 0 {
		t.Errorf("ran %d events on empty queue", n)
	}
	if !c.Now().Equal(target) {
		t.Errorf("Now = %v, want %v", c.Now(), target)
	}
}

func TestTimerStop(t *testing.T) {
	c := NewClock()
	fired := false
	tm := c.AfterEvent(time.Second, fn(func() { fired = true }), 0)
	if !tm.Stop() {
		t.Error("first Stop should report true")
	}
	if tm.Stop() {
		t.Error("second Stop should report false")
	}
	c.Drain(0)
	if fired {
		t.Error("cancelled event fired")
	}
	if c.Pending() != 0 {
		t.Errorf("Pending = %d", c.Pending())
	}
}

func TestClockPastEventClamps(t *testing.T) {
	c := NewClock()
	c.RunUntil(Epoch.Add(time.Minute))
	fired := false
	c.at(0, fn(func() { fired = true }), 0) // Epoch, in the past
	c.Step()
	if !fired {
		t.Error("past event should fire immediately")
	}
	if c.Now().Before(Epoch.Add(time.Minute)) {
		t.Error("clock went backwards")
	}
}

func TestClockDrainLimit(t *testing.T) {
	c := NewClock()
	count := 0
	var reschedule fn
	reschedule = func() {
		count++
		c.AfterEvent(time.Second, reschedule, 0)
	}
	c.AfterEvent(time.Second, reschedule, 0)
	if n := c.Drain(10); n != 10 {
		t.Errorf("Drain ran %d events", n)
	}
	if count != 10 {
		t.Errorf("count = %d", count)
	}
}

func TestNegativeAfterClamps(t *testing.T) {
	c := NewClock()
	fired := false
	c.AfterEvent(-time.Hour, fn(func() { fired = true }), 0)
	c.Step()
	if !fired {
		t.Error("negative delay should fire immediately")
	}
}

// fn is a closure as a timer target.
type fn func()

func (f fn) Fire(uint64) { f() }

// recorder is a timer target that logs its arguments.
type recorder struct{ args []uint64 }

func (r *recorder) Fire(arg uint64) { r.args = append(r.args, arg) }

// TestTypedAndClosureTimersShareOrder interleaves timers on a recorder and
// on closures due at one instant: they fire in scheduling order, whatever
// their target.
func TestTypedAndClosureTimersShareOrder(t *testing.T) {
	c := NewClock()
	r := &recorder{}
	for i := uint64(0); i < 6; i++ {
		if i%2 == 0 {
			c.AfterEvent(time.Second, r, i)
		} else {
			c.AfterEvent(time.Second, fn(func() { r.Fire(i) }), 0)
		}
	}
	c.Drain(0)
	for i, v := range r.args {
		if v != uint64(i) {
			t.Fatalf("same-instant timers fired as %v, want scheduling order", r.args)
		}
	}
	if len(r.args) != 6 {
		t.Fatalf("fired %d timers, want 6", len(r.args))
	}
}

// TestStaleTypedTimerCannotCancelNextOccupant fires a typed timer, lets a
// new timer reuse its slot, and checks the old handle stops nothing.
func TestStaleTypedTimerCannotCancelNextOccupant(t *testing.T) {
	c := NewClock()
	r := &recorder{}
	old := c.AfterEvent(time.Second, r, 1)
	c.Step()
	next := c.AfterEvent(time.Second, r, 2)
	if old.slot != next.slot {
		t.Fatalf("slot %d not reused (got %d); the test needs the recycled slot", old.slot, next.slot)
	}
	if old.Stop() {
		t.Error("a stale handle reported stopping its slot's next occupant")
	}
	c.Drain(0)
	if len(r.args) != 2 || r.args[1] != 2 {
		t.Errorf("fired %v, want [1 2]: the stale Stop cancelled the next timer", r.args)
	}
}

// TestTypedTimerAllocs pins a warm typed timer at zero allocations to arm,
// stop, and arm and fire.
func TestTypedTimerAllocs(t *testing.T) {
	c := NewClock()
	r := &recorder{args: make([]uint64, 0, 1)}
	allocs := testing.AllocsPerRun(1000, func() {
		c.AfterEvent(time.Second, r, 7).Stop()
		c.AfterEvent(time.Second, r, 8)
		c.Step()
		r.args = r.args[:0]
	})
	if allocs != 0 {
		t.Errorf("typed timer arm/stop/fire: %v allocs, want 0", allocs)
	}
}

// TestSlotIsOneCacheLine pins an event slot at 64 bytes: firing an event
// reads its slot, and a slot that straddles two lines costs two misses.
func TestSlotIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(eslot{}); got != 64 {
		t.Errorf("eslot is %d bytes, want 64", got)
	}
}

// TestClockRingRouting pins where AfterEvent queues a timer: a delay's
// first arm goes to the heap and its later arms to its ring, one-off delays
// claim no ring, a delay that finds every ring claimed stays on the heap,
// and Stop answers the same on both parts of the queue.
func TestClockRingRouting(t *testing.T) {
	nop := fn(func() {})

	c := NewClock()
	c.AfterEvent(2*time.Second, nop, 0)
	for i := 0; i < 200; i++ {
		h := len(c.heap)
		c.AfterEvent(2*time.Second, nop, 0)
		if len(c.heap) > h {
			t.Fatalf("arm %d of a repeated delay grew the heap to %d", i+2, len(c.heap))
		}
		if i%3 == 0 {
			c.RunFor(time.Second)
		}
	}
	if c.nrings != 1 || c.rings[0].n == 0 {
		t.Fatalf("repeated delay: %d rings, %d entries in the first", c.nrings, c.rings[0].n)
	}

	// One-off delays, as many as a scale-1 swarm's churn restarts.
	c = NewClock()
	for i := 0; i < 26; i++ {
		c.AfterEvent(11*time.Hour+time.Duration(i)*time.Minute+time.Duration(i*i)*time.Millisecond, nop, 0)
	}
	if c.nrings != 0 || len(c.heap) != 26 {
		t.Fatalf("26 one-off delays: %d rings claimed, %d heap entries", c.nrings, len(c.heap))
	}

	// maxRings classes armed in turn, as a crawl interleaves its delays: each
	// is still remembered at its second arm.
	c = NewClock()
	for round := 0; round < 2; round++ {
		for k := 1; k <= maxRings; k++ {
			c.AfterEvent(time.Duration(k)*time.Second, nop, 0)
		}
	}
	if c.nrings != maxRings || len(c.heap) != maxRings {
		t.Fatalf("%d classes armed twice: %d rings, %d heap entries", maxRings, c.nrings, len(c.heap))
	}
	for i := 1; i <= 3; i++ {
		c.AfterEvent(time.Minute, nop, 0)
		if len(c.heap) != maxRings+i || c.nrings != maxRings {
			t.Fatalf("arm %d of a delay past a full ring table: %d heap entries, %d rings", i, len(c.heap), c.nrings)
		}
	}

	c = NewClock()
	r := &recorder{}
	onHeap := c.AfterEvent(time.Second, r, 1)
	onRing := c.AfterEvent(time.Second, r, 2)
	if len(c.heap) != 1 || c.nrings != 1 || c.rings[0].n != 1 {
		t.Fatalf("heap %d, rings %d: want one timer on each part", len(c.heap), c.nrings)
	}
	for i, tm := range []Timer{onHeap, onRing} {
		if !tm.Stop() {
			t.Errorf("part %d: first Stop of a pending timer reported false", i)
		}
		if tm.Stop() {
			t.Errorf("part %d: second Stop reported true", i)
		}
		if got := c.Pending(); got != 1-i {
			t.Errorf("part %d: Pending = %d after Stop, want %d", i, got, 1-i)
		}
	}
	onHeap = c.AfterEvent(3*time.Second, r, 3) // a new delay: the heap
	onRing = c.AfterEvent(time.Second, r, 4)
	if c.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", c.Pending())
	}
	if n := c.Drain(0); n != 2 || len(r.args) != 2 || r.args[0] != 4 || r.args[1] != 3 {
		t.Fatalf("Drain ran %d and fired %v, want [4 3]: stopped timers fired or order broke", n, r.args)
	}
	for i, tm := range []Timer{onHeap, onRing} {
		if tm.Stop() {
			t.Errorf("part %d: Stop after firing reported true", i)
		}
	}
	if c.Pending() != 0 {
		t.Errorf("Pending = %d after Drain", c.Pending())
	}
}
