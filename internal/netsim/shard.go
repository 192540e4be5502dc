package netsim

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

// ShardGroup partitions the fabric into address-range shards, each with its
// own Clock and Network, so independent slices of the simulated Internet can
// run on separate cores. The scheme is conservative parallel discrete-event
// simulation: shards advance in lockstep windows no longer than the
// lookahead (the fabric's LatencyBase), which guarantees any datagram sent
// during a window is delivered strictly after the window's end barrier —
// cross-shard traffic therefore never has to interrupt a running shard. At
// each barrier the accumulated cross-shard messages are sorted by
// (deliverAt, sending shard, send sequence) and scheduled onto the receiving
// clocks, so the outcome is a pure function of (seed, shard count): bit-for-
// bit identical for any worker count or GOMAXPROCS.
//
// A sharded run is NOT byte-equivalent to a monolithic one: each shard draws
// loss and jitter from its own RNG stream, so per-datagram fates differ —
// the same equivalence boundary DESIGN.md §12 documents for the crawl fleet.
// What is pinned instead: determinism for a fixed shard count, and
// scheduling invariance (workers, GOMAXPROCS).
type ShardGroup struct {
	shards    []*Shard
	lookahead time.Duration
	workers   int
	now       time.Time
}

// Shard is one address-range slice of the fabric.
type Shard struct {
	Clock *Clock
	Net   *Network

	group *ShardGroup
	index int
	out   [][]crossMsg // per-destination outboxes, drained at barriers
	seq   uint64       // outgoing cross-shard message counter
}

// crossMsg is a datagram in flight between shards. Loss and jitter were
// already rolled on the sending shard; only delivery remains.
type crossMsg struct {
	deliverAt int64 // ns since Epoch
	from, to  Endpoint
	payload   []byte
	srcShard  int
	srcSeq    uint64
}

// NewShardGroup builds n shards over the given fabric config. LatencyBase
// must be positive — it is the lookahead that makes conservative windowing
// sound. Fault hooks are rejected: injectors are stateful in event order
// across the whole fabric, which a partitioned fabric cannot replay (run
// fault scenarios on the monolithic path). workers bounds how many shards
// execute concurrently inside one window; any value yields identical
// results. A shared Trace hook forces sequential windows (the hook would
// race otherwise) but changes no outcome.
func NewShardGroup(n, workers int, cfg Config) (*ShardGroup, error) {
	if n < 1 {
		return nil, fmt.Errorf("netsim: shard count %d < 1", n)
	}
	if cfg.LatencyBase <= 0 {
		return nil, fmt.Errorf("netsim: sharding requires positive LatencyBase lookahead")
	}
	if cfg.FaultSend != nil || cfg.FaultDeliver != nil {
		return nil, fmt.Errorf("netsim: fault hooks are not supported on sharded fabrics")
	}
	if workers < 1 || cfg.Trace != nil {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	g := &ShardGroup{lookahead: cfg.LatencyBase, workers: workers, now: Epoch}
	for i := 0; i < n; i++ {
		shardCfg := cfg
		// Distinct RNG stream per shard; splitmix increment keeps streams
		// decorrelated even for adjacent indices.
		shardCfg.Seed = cfg.Seed ^ int64(uint64(i+1)*0x9e3779b97f4a7c15)
		clock := NewClock()
		net, err := NewNetwork(clock, shardCfg)
		if err != nil {
			return nil, err
		}
		sh := &Shard{Clock: clock, Net: net, group: g, index: i, out: make([][]crossMsg, n)}
		net.forward = sh.forward
		g.shards = append(g.shards, sh)
	}
	return g, nil
}

// Shards returns the shard slice (index i owns address blocks where
// block%n == i).
func (g *ShardGroup) Shards() []*Shard { return g.shards }

// ShardFor returns the shard owning addr. Ownership is by /16 block so one
// gateway's NAT and its whole pool stay on one shard.
func (g *ShardGroup) ShardFor(addr iputil.Addr) *Shard {
	return g.shards[int(uint32(addr)>>16)%len(g.shards)]
}

// Now returns the group's barrier time; all shard clocks sit at this
// instant between RunFor/RunUntil calls.
func (g *ShardGroup) Now() time.Time { return g.now }

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
func (sh *Shard) forward(deliverAt int64, from, to Endpoint, payload []byte) bool {
	dst := sh.group.ShardFor(to.Addr).index
	if dst == sh.index {
		return false
	}
	sh.out[dst] = append(sh.out[dst], crossMsg{
		deliverAt: deliverAt,
		from:      from,
		to:        to,
		payload:   payload,
		srcShard:  sh.index,
		srcSeq:    sh.seq,
	})
	sh.seq++
	return true
}

// RunFor advances every shard by d in lockstep windows.
func (g *ShardGroup) RunFor(d time.Duration) { g.RunUntil(g.now.Add(d)) }

// RunUntil advances every shard to t.
func (g *ShardGroup) RunUntil(t time.Time) {
	for {
		g.drain()
		if !g.now.Before(t) {
			return
		}
		end := g.now.Add(g.lookahead)
		if e, ok := g.earliestEvent(); !ok {
			// Nothing scheduled anywhere and inboxes are drained: nothing
			// can happen before t.
			end = t
		} else if e.After(end) {
			// Dead air: jump the window straight to the next event. The
			// window exceeds the lookahead but contains events only at its
			// very end, so sends still land beyond the barrier.
			end = e
		}
		if end.After(t) {
			end = t
		}
		g.runWindow(end)
		g.now = end
	}
}

// drain moves every outbox message onto its receiving shard's clock. Runs
// single-threaded between windows; ordering is (deliverAt, srcShard,
// srcSeq), so scheduling order — and therefore same-instant tie-breaking on
// the receiver — is deterministic.
func (g *ShardGroup) drain() {
	for dst, rcv := range g.shards {
		var pending []crossMsg
		for _, src := range g.shards {
			if msgs := src.out[dst]; len(msgs) > 0 {
				pending = append(pending, msgs...)
				src.out[dst] = msgs[:0]
			}
		}
		if len(pending) == 0 {
			continue
		}
		sort.Slice(pending, func(i, j int) bool {
			a, b := pending[i], pending[j]
			if a.deliverAt != b.deliverAt {
				return a.deliverAt < b.deliverAt
			}
			if a.srcShard != b.srcShard {
				return a.srcShard < b.srcShard
			}
			return a.srcSeq < b.srcSeq
		})
		for _, m := range pending {
			rcv.Clock.deliverAt(m.deliverAt, rcv.Net, m.from, m.to, m.payload)
		}
	}
}

// earliestEvent returns the soonest pending event across all shards.
func (g *ShardGroup) earliestEvent() (time.Time, bool) {
	var best int64
	found := false
	for _, sh := range g.shards {
		if e, ok := sh.Clock.peek(); ok && (!found || e.at < best) {
			best, found = e.at, true
		}
	}
	return Epoch.Add(time.Duration(best)), found
}

// runWindow advances every shard clock to end, concurrently when the group
// has workers. Shards share no mutable state inside a window (cross-shard
// sends go to the sender-owned outbox), so scheduling cannot affect results.
func (g *ShardGroup) runWindow(end time.Time) {
	if g.workers <= 1 {
		for _, sh := range g.shards {
			sh.Clock.RunUntil(end)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan *Shard, len(g.shards))
	for _, sh := range g.shards {
		next <- sh
	}
	close(next)
	for w := 0; w < g.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sh := range next {
				sh.Clock.RunUntil(end)
			}
		}()
	}
	wg.Wait()
}
