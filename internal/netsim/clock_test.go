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
