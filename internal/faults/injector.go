package faults

import (
	"encoding/binary"
	"hash/fnv"
	"time"

	"github.com/reuseblock/reuseblock/internal/bencode"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

// Stats counts what the injector did to the wire, split per mechanism so a
// degraded run can explain itself. Every mechanism runs on arrival, on the
// event loop of the shard owning the destination, in that shard's canonical
// event order, so the counters are deterministic and independent of the
// shard count.
type Stats struct {
	BurstDropped    int64 // Gilbert-Elliott drops
	BlackoutDropped int64 // partition drops
	RateLimited     int64 // token-bucket drops
	Corrupted       int64 // datagrams mutated in flight
}

// Total is the number of datagrams the injector dropped outright.
func (s Stats) Total() int64 { return s.BurstDropped + s.BlackoutDropped + s.RateLimited }

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.BurstDropped += o.BurstDropped
	s.BlackoutDropped += o.BlackoutDropped
	s.RateLimited += o.RateLimited
	s.Corrupted += o.Corrupted
}

type bucket struct {
	tokens float64
	last   time.Duration
}

// Injector applies a Scenario's wire-level mechanisms — bursty loss,
// blackouts, rate limiting and corruption — to a fabric through its
// Config.Faults hook factory. Every random draw comes from the datagram's
// own Fate (keyed by the injector seed), and the state that must persist —
// each destination's Gilbert-Elliott link state and token bucket — lives in
// the part of the injector that serves the shard owning that destination.
// One Injector serves one fabric, however many shards it has.
type Injector struct {
	scn   *Scenario
	seed  int64
	parts []*part // one per fabric shard, in shard order
}

// part is the injector state of one fabric shard, keyed by the destination
// addresses that shard owns.
type part struct {
	inj     *Injector
	bad     map[iputil.Addr]bool // destinations whose link is in the bad state
	buckets map[iputil.Addr]*bucket
	stats   Stats
}

// NewInjector validates the scenario and builds an injector. A nil
// scenario — or one with no wire-level mechanisms — yields a nil injector
// and no error: Install on nil is a no-op.
func NewInjector(scn *Scenario, seed int64) (*Injector, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	if scn == nil {
		return nil, nil
	}
	if scn.Gilbert == nil && len(scn.Blackouts) == 0 && scn.RateLimit == nil && scn.Corruption == nil {
		return nil, nil
	}
	return &Injector{scn: scn, seed: seed}, nil
}

// Install wires the injector into a fabric config. Call before building the
// fabric (netsim.NewShardGroup or netsim.NewNetwork), which asks for one
// hook per shard.
func (inj *Injector) Install(cfg *netsim.Config) {
	if inj == nil {
		return
	}
	cfg.Faults = func() netsim.FaultHook {
		p := &part{inj: inj, bad: make(map[iputil.Addr]bool), buckets: make(map[iputil.Addr]*bucket)}
		inj.parts = append(inj.parts, p)
		return p.apply
	}
}

// Stats returns the per-mechanism counters summed over the fabric's shards.
// Call it between runs, not while shards execute.
func (inj *Injector) Stats() Stats {
	var out Stats
	if inj == nil {
		return out
	}
	for _, p := range inj.parts {
		out.Add(p.stats)
	}
	return out
}

// apply runs every mechanism on one arriving datagram: blackouts first (a
// partition needs no draw), then the destination's Gilbert-Elliott link,
// then rate limiting (the datagram never reaches the host), then in-flight
// corruption of whatever survives.
func (p *part) apply(d netsim.Datagram) []byte {
	scn := p.inj.scn
	for _, b := range scn.Blackouts {
		if d.At < b.Start || d.At >= b.End {
			continue
		}
		if p.inj.blackedOut(b, d.From.Addr) || p.inj.blackedOut(b, d.To.Addr) {
			p.stats.BlackoutDropped++
			return nil
		}
	}
	fate := netsim.NewFate(p.inj.seed, d.From, d.To, d.Seq)
	if g := scn.Gilbert; g != nil {
		bad := p.bad[d.To.Addr]
		loss := g.LossGood
		if bad {
			loss = g.LossBad
		}
		drop := fate.Float64() < loss
		// Advance the link state after the loss roll: one transition per
		// datagram, so burst lengths follow the Markov chain.
		if bad && fate.Float64() < g.PBadGood {
			delete(p.bad, d.To.Addr)
		} else if !bad && fate.Float64() < g.PGoodBad {
			p.bad[d.To.Addr] = true
		}
		if drop {
			p.stats.BurstDropped++
			return nil
		}
	}
	if rl := scn.RateLimit; rl != nil && p.limited(rl, d) {
		p.stats.RateLimited++
		return nil
	}
	if c := scn.Corruption; c != nil && fate.Float64() < c.Prob {
		p.stats.Corrupted++
		return corrupt(d.Payload, &fate)
	}
	return d.Payload
}

func (inj *Injector) blackedOut(b Blackout, addr iputil.Addr) bool {
	for _, p := range b.Prefixes {
		if p.Contains(addr) {
			return true
		}
	}
	if b.FracOf24s > 0 && Selected(inj.seed, uint64(addr)>>8, b.FracOf24s) {
		return true
	}
	return false
}

// limited charges one token at the destination's bucket, refilled in
// virtual time.
func (p *part) limited(rl *RateLimit, d netsim.Datagram) bool {
	if rl.QueriesOnly {
		m, err := krpc.Unmarshal(d.Payload)
		if err != nil || m.Kind != krpc.KindQuery {
			return false
		}
	}
	bk := p.buckets[d.To.Addr]
	if bk == nil {
		bk = &bucket{tokens: rl.Burst, last: d.At}
		p.buckets[d.To.Addr] = bk
	}
	bk.tokens += (d.At - bk.last).Seconds() * rl.RatePerSec
	bk.last = d.At
	if bk.tokens > rl.Burst {
		bk.tokens = rl.Burst
	}
	if bk.tokens < 1 {
		return true
	}
	bk.tokens--
	return false
}

// corrupt returns a damaged copy of the payload. Three shapes, chosen by the
// datagram's fate: plain truncation (string extends past input), a single
// bit flip, and — for find_node responses — a compact node list whose
// length is no longer a multiple of 26, the exact malformation
// krpc.UnmarshalCompactNodes rejects.
func corrupt(payload []byte, fate *netsim.Fate) []byte {
	p := append([]byte(nil), payload...)
	if len(p) == 0 {
		return p
	}
	switch fate.Intn(3) {
	case 0: // truncate
		return p[:fate.Intn(len(p))]
	case 1: // bit flip
		p[fate.Intn(len(p))] ^= 1 << fate.Intn(8)
		return p
	default: // bad compact-node length, else fall back to truncation
		if out, ok := damageNodes(p, fate); ok {
			return out
		}
		return p[:fate.Intn(len(p))]
	}
}

// damageNodes shortens a response's "nodes" value by 1..25 bytes so the
// list length stops being a multiple of the 26-byte compact node size,
// while the datagram remains valid bencoding.
func damageNodes(p []byte, fate *netsim.Fate) ([]byte, bool) {
	raw, err := bencode.Decode(p)
	if err != nil {
		return nil, false
	}
	dict, ok := raw.(map[string]bencode.Value)
	if !ok {
		return nil, false
	}
	r, ok := dict["r"].(map[string]bencode.Value)
	if !ok {
		return nil, false
	}
	nodes, ok := r["nodes"].(string)
	if !ok || len(nodes) < krpc.CompactNodeLen {
		return nil, false
	}
	cut := 1 + fate.Intn(krpc.CompactNodeLen-1)
	r["nodes"] = nodes[:len(nodes)-cut]
	out, err := bencode.Encode(dict)
	if err != nil {
		return nil, false
	}
	return out, true
}

// Selected deterministically picks whether the entity identified by key is
// in the chosen fraction: it hashes (seed, key) and compares the normalised
// hash to frac. The same (seed, key) always answers the same way, on any
// worker, in any order — the scheme behind blackout /24 selection, byzantine
// node marking and restart-storm membership.
func Selected(seed int64, key uint64, frac float64) bool {
	if frac <= 0 {
		return false
	}
	if frac >= 1 {
		return true
	}
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(seed))
	binary.BigEndian.PutUint64(buf[8:], key)
	h := fnv.New64a()
	h.Write(buf[:])
	// FNV-1a's high bits are weakly mixed for inputs differing only in
	// the trailing bytes; a murmur3-style finalizer spreads them.
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x>>11)/(1<<53) < frac
}
