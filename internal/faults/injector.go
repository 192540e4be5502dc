package faults

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"time"

	"github.com/reuseblock/reuseblock/internal/bencode"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

// Stats counts what the injector did to the wire, split per mechanism so a
// degraded run can explain itself. All counters advance on the simulator's
// event-loop goroutine in event order, so they are deterministic.
type Stats struct {
	BurstDropped    int64 // Gilbert-Elliott drops (send side)
	BlackoutDropped int64 // partition drops (send side)
	RateLimited     int64 // token-bucket drops (deliver side)
	Corrupted       int64 // datagrams mutated in flight (deliver side)
}

// Total is the number of datagrams the injector dropped outright.
func (s Stats) Total() int64 { return s.BurstDropped + s.BlackoutDropped + s.RateLimited }

type bucket struct {
	tokens float64
	last   time.Duration
}

// Injector applies a Scenario's wire-level mechanisms to one netsim.Network
// via its FaultSend/FaultDeliver hooks. Send-side it scripts link faults
// (bursty loss, blackouts); deliver-side, receiver faults (rate limiting,
// corruption). One Injector serves exactly one Network: its RNG and
// Gilbert-Elliott state advance with that network's event order.
type Injector struct {
	scn   *Scenario
	clock *netsim.Clock
	seed  int64
	rng   *rand.Rand

	geBad   bool // Gilbert-Elliott link state
	buckets map[iputil.Addr]*bucket
	stats   Stats
}

// NewInjector validates the scenario and builds an injector bound to the
// given clock. A nil scenario — or one with no wire-level mechanisms —
// yields a nil injector and no error: Install on nil is a no-op.
func NewInjector(scn *Scenario, seed int64, clock *netsim.Clock) (*Injector, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	if scn == nil {
		return nil, nil
	}
	if scn.Gilbert == nil && len(scn.Blackouts) == 0 && scn.RateLimit == nil && scn.Corruption == nil {
		return nil, nil
	}
	return &Injector{
		scn:     scn,
		clock:   clock,
		seed:    seed,
		rng:     rand.New(rand.NewSource(seed ^ 0x464c54)), // "FLT"
		buckets: make(map[iputil.Addr]*bucket),
	}, nil
}

// Install wires the injector into a network config. Call before NewNetwork.
func (inj *Injector) Install(cfg *netsim.Config) {
	if inj == nil {
		return
	}
	if inj.scn.Gilbert != nil || len(inj.scn.Blackouts) > 0 {
		cfg.FaultSend = inj.faultSend
	}
	if inj.scn.RateLimit != nil || inj.scn.Corruption != nil {
		cfg.FaultDeliver = inj.faultDeliver
	}
}

// Stats returns a snapshot of the per-mechanism counters.
func (inj *Injector) Stats() Stats {
	if inj == nil {
		return Stats{}
	}
	return inj.stats
}

// faultSend models link-level faults: the datagram dies before it reaches
// the fabric. Blackouts are checked first (a partition needs no RNG), then
// the Gilbert-Elliott state machine advances once per datagram.
func (inj *Injector) faultSend(from, to netsim.Endpoint, payload []byte) []byte {
	now := inj.clock.Now().Sub(netsim.Epoch)
	for _, b := range inj.scn.Blackouts {
		if now < b.Start || now >= b.End {
			continue
		}
		if inj.blackedOut(b, from.Addr) || inj.blackedOut(b, to.Addr) {
			inj.stats.BlackoutDropped++
			return nil
		}
	}
	if g := inj.scn.Gilbert; g != nil {
		loss := g.LossGood
		if inj.geBad {
			loss = g.LossBad
		}
		drop := inj.rng.Float64() < loss
		// Advance the link state after the loss roll: one transition
		// per datagram, so burst lengths follow the Markov chain.
		if inj.geBad {
			if inj.rng.Float64() < g.PBadGood {
				inj.geBad = false
			}
		} else if inj.rng.Float64() < g.PGoodBad {
			inj.geBad = true
		}
		if drop {
			inj.stats.BurstDropped++
			return nil
		}
	}
	return payload
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

// faultDeliver models receiver-side faults just before the datagram is
// handed to routing: rate limiting first (the datagram never reaches the
// host), then in-flight corruption of whatever survives.
func (inj *Injector) faultDeliver(from, to netsim.Endpoint, payload []byte) []byte {
	if rl := inj.scn.RateLimit; rl != nil && inj.limited(rl, to.Addr, payload) {
		inj.stats.RateLimited++
		return nil
	}
	if c := inj.scn.Corruption; c != nil && inj.rng.Float64() < c.Prob {
		inj.stats.Corrupted++
		return inj.corrupt(payload)
	}
	return payload
}

// limited charges one token at to's bucket, refilled in virtual time.
func (inj *Injector) limited(rl *RateLimit, to iputil.Addr, payload []byte) bool {
	if rl.QueriesOnly {
		m, err := krpc.Unmarshal(payload)
		if err != nil || m.Kind != krpc.KindQuery {
			return false
		}
	}
	now := inj.clock.Now().Sub(netsim.Epoch)
	bk := inj.buckets[to]
	if bk == nil {
		bk = &bucket{tokens: rl.Burst, last: now}
		inj.buckets[to] = bk
	}
	bk.tokens += (now - bk.last).Seconds() * rl.RatePerSec
	bk.last = now
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
// injector RNG: plain truncation (string extends past input), a single bit
// flip, and — for find_node responses — a compact node list whose
// length is no longer a multiple of 26, the exact malformation
// krpc.UnmarshalCompactNodes rejects.
func (inj *Injector) corrupt(payload []byte) []byte {
	p := append([]byte(nil), payload...)
	if len(p) == 0 {
		return p
	}
	switch inj.rng.Intn(3) {
	case 0: // truncate
		return p[:inj.rng.Intn(len(p))]
	case 1: // bit flip
		p[inj.rng.Intn(len(p))] ^= 1 << inj.rng.Intn(8)
		return p
	default: // bad compact-node length, else fall back to truncation
		if out, ok := inj.damageNodes(p); ok {
			return out
		}
		return p[:inj.rng.Intn(len(p))]
	}
}

// damageNodes shortens a response's "nodes" value by 1..25 bytes so the
// list length stops being a multiple of the 26-byte compact node size,
// while the datagram remains valid bencoding.
func (inj *Injector) damageNodes(p []byte) ([]byte, bool) {
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
	cut := 1 + inj.rng.Intn(krpc.CompactNodeLen-1)
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
