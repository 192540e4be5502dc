package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

// ShardGroup partitions the fabric into address-range shards, each with its
// own Clock and Network, so independent slices of the simulated Internet can
// run on separate cores. The scheme is conservative parallel discrete-event
// simulation: shards advance in lockstep half-open windows no longer than
// the lookahead (the fabric's LatencyBase), which guarantees any datagram
// sent during a window is delivered at or after the window's end barrier —
// cross-shard traffic therefore never has to interrupt a running shard. At
// each barrier the accumulated cross-shard messages are scheduled onto the
// receiving clocks.
//
// The outcome does not depend on the shard count: a datagram's loss and
// jitter come from its own Fate, every shard's clock orders same-instant
// events canonically (see Clock), and a fault hook's state lives on the
// shard owning the destination. ShardGroup(1) and ShardGroup(N) therefore
// produce byte-identical runs, for any worker count or GOMAXPROCS. A
// one-shard group runs its clock directly, with no windows.
type ShardGroup struct {
	shards    []*Shard
	lookahead time.Duration
	workers   int
	now       time.Time

	busy       []*Shard // scratch: the shards with work due in this window
	windows    int64    // windows run
	concurrent int64    // windows whose shards ran on several goroutines
}

// Shard is one address-range slice of the fabric.
type Shard struct {
	Clock *Clock
	Net   *Network

	group *ShardGroup
	index int
	out   [][]crossMsg // per-destination outboxes, drained at barriers
}

// crossMsg is a datagram in flight between shards. Loss and jitter were
// already rolled on the sending shard; only delivery remains.
type crossMsg struct {
	deliverAt int64 // ns since Epoch
	from, to  Endpoint
	seq       uint64 // the source's send sequence number
	payload   []byte
}

// NewShardGroup builds n shards over the given fabric config; cfg.Faults,
// when set, builds one hook per shard. With more than one shard LatencyBase
// must be positive — it is the lookahead that makes conservative windowing
// sound. workers bounds how many shards execute concurrently inside one
// window; any value yields identical results. A shared Trace hook forces
// sequential windows (the hook would race otherwise) but changes no outcome.
func NewShardGroup(n, workers int, cfg Config) (*ShardGroup, error) {
	if n < 1 {
		return nil, fmt.Errorf("netsim: shard count %d < 1", n)
	}
	if n > 1 && cfg.LatencyBase <= 0 {
		return nil, fmt.Errorf("netsim: sharding requires positive LatencyBase lookahead")
	}
	if workers < 1 || cfg.Trace != nil {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	g := &ShardGroup{lookahead: cfg.LatencyBase, workers: workers, now: Epoch}
	for i := 0; i < n; i++ {
		clock := NewClock()
		net, err := NewNetwork(clock, cfg)
		if err != nil {
			return nil, err
		}
		sh := &Shard{Clock: clock, Net: net, group: g, index: i}
		if n > 1 {
			sh.out = make([][]crossMsg, n)
			net.forward = sh.forward
		}
		g.shards = append(g.shards, sh)
	}
	return g, nil
}

// Shards returns the shard slice (index i owns address blocks where
// block%n == i).
func (g *ShardGroup) Shards() []*Shard { return g.shards }

// Index returns the shard's position in the group's Shards slice.
func (sh *Shard) Index() int { return sh.index }

// ShardFor returns the shard owning addr. Ownership is by /16 block so one
// gateway's NAT and its whole pool stay on one shard.
func (g *ShardGroup) ShardFor(addr iputil.Addr) *Shard {
	return g.shards[int(uint32(addr)>>16)%len(g.shards)]
}

// Now returns the group's barrier time; all shard clocks sit at this
// instant between RunFor/RunUntil calls.
func (g *ShardGroup) Now() time.Time { return g.now }

// Windows returns how many lockstep windows the group has run and how many
// of them ran shards concurrently. Unlike every outcome of the simulation,
// both depend on the shard and worker counts; a one-shard group runs no
// windows.
func (g *ShardGroup) Windows() (run, concurrent int64) { return g.windows, g.concurrent }

// Stats sums traffic counters across shards.
func (g *ShardGroup) Stats() Stats {
	var total Stats
	for _, sh := range g.shards {
		s := sh.Net.Stats()
		total.Sent += s.Sent
		total.Delivered += s.Delivered
		total.Dropped += s.Dropped
		total.NoRoute += s.NoRoute
		total.FaultDropped += s.FaultDropped
	}
	return total
}

// forward intercepts a datagram leaving sh's fabric slice; it reports
// whether the destination belongs to another shard (and was enqueued there).
func (sh *Shard) forward(deliverAt int64, from, to Endpoint, seq uint64, payload []byte) bool {
	dst := sh.group.ShardFor(to.Addr).index
	if dst == sh.index {
		return false
	}
	sh.out[dst] = append(sh.out[dst], crossMsg{deliverAt: deliverAt, from: from, to: to, seq: seq, payload: payload})
	return true
}

// RunFor advances every shard by d in lockstep windows.
func (g *ShardGroup) RunFor(d time.Duration) { g.RunUntil(g.now.Add(d)) }

// RunUntil advances every shard to t, running every event due at or before
// t, like Clock.RunUntil on a one-shard fabric.
func (g *ShardGroup) RunUntil(t time.Time) {
	if len(g.shards) == 1 {
		g.shards[0].Clock.RunUntil(t)
		g.now = g.shards[0].Clock.Now()
		return
	}
	end := sinceEpoch(t)
	now := sinceEpoch(g.now)
	for {
		g.drain()
		if now >= end {
			break
		}
		// Each window [start, stop) runs events strictly before stop; a send
		// at start or later arrives at start+lookahead or later, past the
		// barrier. Empty stretches are skipped by starting the window at
		// the next event.
		start := end
		if e, ok := g.earliestEvent(); ok && e < end {
			start = max(now, e)
		}
		stop := min(start+int64(g.lookahead), end)
		if stop > start {
			g.runWindow(stop, false)
		}
		now = stop
		g.now = Epoch.Add(time.Duration(now))
	}
	// Events due exactly at t: anything they send arrives after t, so this
	// last inclusive pass needs no barrier beyond the final drain.
	g.runWindow(end, true)
	g.drain()
}

// drain moves every outbox message onto its receiving shard's clock. It
// runs single-threaded between windows; the receiving clock orders the
// messages canonically, so the drain order does not matter.
func (g *ShardGroup) drain() {
	for _, src := range g.shards {
		for dst, msgs := range src.out {
			rcv := g.shards[dst]
			for _, m := range msgs {
				rcv.Clock.deliverAt(m.deliverAt, rcv.Net, m.from, m.to, m.seq, m.payload)
			}
			src.out[dst] = msgs[:0]
		}
	}
}

// earliestEvent returns the soonest pending event time (ns since Epoch)
// across all shards.
func (g *ShardGroup) earliestEvent() (int64, bool) {
	var best int64
	found := false
	for _, sh := range g.shards {
		if e, ok := sh.Clock.peek(); ok && (!found || e.at < best) {
			best, found = e.at, true
		}
	}
	return best, found
}

// runWindow advances every shard clock to end (running events at end too
// when inclusive). It peeks every shard first: a shard with nothing due
// only moves its clock to end. The busy shards run inline on the caller
// when there is at most one of them or the group has one worker, and
// otherwise on min(workers, busy) goroutines, the caller among them. In a
// crawl most windows hold one shard's work, and the heavy ones (NATed
// nodes' synchronized keepalive bursts) hold every shard's, so goroutines
// are started only where they pay. Shards share no mutable state inside a
// window (cross-shard sends go to the sender-owned outbox), so scheduling
// cannot affect results.
func (g *ShardGroup) runWindow(end int64, inclusive bool) {
	g.windows++
	busy := g.busy[:0]
	for _, sh := range g.shards {
		if sh.Clock.due(end, inclusive) {
			busy = append(busy, sh)
		} else {
			sh.Clock.runTo(end, inclusive) // nothing due: only the clock moves
		}
	}
	g.busy = busy
	n := min(g.workers, len(busy))
	if n <= 1 {
		for _, sh := range busy {
			sh.Clock.runTo(end, inclusive)
		}
		return
	}
	g.concurrent++
	w := &window{busy: busy, end: end, inclusive: inclusive}
	w.pending.Add(len(busy))
	for k := 1; k < n; k++ {
		go w.claim()
	}
	w.claim()
	w.pending.Wait()
}

// window is the work list of one concurrent window. Its goroutines claim
// the busy shards in order until none is left, so the caller runs the
// share of a goroutine that has not started yet instead of waiting for
// it. Nothing waits for such a late goroutine: it finds nothing to claim
// and returns. It indexes busy only after a successful claim, and every
// claim completes before runWindow returns, so it never reads the shard
// list of a later window.
type window struct {
	busy      []*Shard
	end       int64
	inclusive bool
	next      atomic.Int32   // index of the next unclaimed shard
	pending   sync.WaitGroup // busy shards not yet run to end
}

// claim runs unclaimed busy shards to the window's end until none is left.
func (w *window) claim() {
	for {
		i := int(w.next.Add(1)) - 1
		if i >= len(w.busy) {
			return
		}
		w.busy[i].Clock.runTo(w.end, w.inclusive)
		w.pending.Done()
	}
}
