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
	"sync"
	"time"

	"github.com/reuseblock/reuseblock/internal/netsim"
)

// Clock abstracts time for the DHT node and the crawler so they run
// identically on simulated and wall-clock time.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After schedules fn once after d and returns a stop function that
	// reports whether the event was cancelled before firing.
	After(d time.Duration, fn func()) (stop func() bool)
}

// SimClock adapts a netsim.Clock to the Clock interface.
func SimClock(c *netsim.Clock) Clock { return simClock{c} }

type simClock struct{ c *netsim.Clock }

func (s simClock) Now() time.Time { return s.c.Now() }

func (s simClock) After(d time.Duration, fn func()) func() bool {
	t := s.c.After(d, fn)
	return t.Stop
}

// WallClock returns a Clock backed by real time; timers fire on their own
// goroutines, so callers must provide their own locking (RealSocket does).
func WallClock() Clock { return wallClock{} }

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) After(d time.Duration, fn func()) func() bool {
	t := time.AfterFunc(d, fn)
	var once sync.Once
	return func() bool {
		stopped := false
		once.Do(func() { stopped = t.Stop() })
		return stopped
	}
}
