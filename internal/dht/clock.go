// Package dht implements a BitTorrent Mainline-DHT node (BEP 5): a 160-bit
// node identity, a k-bucket Kademlia routing table, query/response handling
// for ping and find_node (the only KRPC methods the paper's crawler sends;
// any other query gets a 204 "Method Unknown" error), and an iterative
// bootstrap procedure.
//
// Nodes are transport-agnostic: they speak KRPC over any netsim.Socket, so
// the same code runs on the simulated network (the default for experiments)
// and on real UDP sockets (see RealSocket in this package).
package dht

import (
	"time"

	"github.com/reuseblock/reuseblock/internal/netsim"
)

// Clock abstracts time for the DHT node and the crawler so they run
// identically on simulated and wall-clock time.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After schedules fn once after d.
	After(d time.Duration, fn func()) Timer
	// AfterEvent schedules t.Fire(arg) once after d. On the simulator a
	// long-lived target makes arming a timer allocation-free; timers of
	// both kinds due at one instant fire in scheduling order.
	AfterEvent(d time.Duration, t netsim.Target, arg uint64) Timer
}

// Timer is a handle to a scheduled callback: a netsim.Timer on the
// simulator, a stop function on the wall clock. The zero Timer stops
// nothing.
type Timer struct {
	sim  netsim.Timer
	stop func() bool
}

// StopFunc returns a Timer whose Stop calls stop, for Clock
// implementations outside the simulator.
func StopFunc(stop func() bool) Timer { return Timer{stop: stop} }

// Stop cancels the callback; it reports whether the callback had not yet
// fired.
func (t Timer) Stop() bool {
	if t.stop != nil {
		return t.stop()
	}
	return t.sim.Stop()
}

// SimClock adapts a netsim.Clock to the Clock interface.
func SimClock(c *netsim.Clock) Clock { return simClock{c} }

type simClock struct{ c *netsim.Clock }

func (s simClock) Now() time.Time { return s.c.Now() }

func (s simClock) After(d time.Duration, fn func()) Timer {
	return Timer{sim: s.c.After(d, fn)}
}

func (s simClock) AfterEvent(d time.Duration, t netsim.Target, arg uint64) Timer {
	return Timer{sim: s.c.AfterEvent(d, t, arg)}
}

// WallClock returns a Clock backed by real time; timers fire on their own
// goroutines, so callers must provide their own locking (RealSocket does).
func WallClock() Clock { return wallClock{} }

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) After(d time.Duration, fn func()) Timer {
	return StopFunc(time.AfterFunc(d, fn).Stop)
}

func (w wallClock) AfterEvent(d time.Duration, t netsim.Target, arg uint64) Timer {
	return w.After(d, func() { t.Fire(arg) })
}
