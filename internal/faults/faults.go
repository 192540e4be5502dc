// Package faults is a deterministic, seed-driven fault-injection layer for
// the measurement pipeline. The paper's detectors operate in a hostile
// environment — 48.6% of crawler queries go unanswered (§3.1), shaped by NAT
// filtering, stale DHT entries and ICMP rate limiting — while the base
// simulator models only independent uniform datagram loss. A Scenario
// scripts richer misbehaviour:
//
//   - Gilbert-Elliott bursty loss (a two-state Markov link per destination,
//     as measured behind carrier-grade NATs by Richter et al.);
//   - timed link blackouts for chosen prefixes or a hash-selected fraction
//     of /24s (partitions);
//   - per-destination token-bucket rate limiting that drops excess inbound
//     queries (ICMP/NAT rate limits);
//   - reply corruption/truncation (malformed KRPC, truncated compact node
//     lists, bad lengths);
//   - byzantine DHT nodes returning fabricated neighbours in find_node
//     (wired by the swarm builder via dht.Config.Byzantine);
//   - restart storms — mass endpoint churn mid-crawl (wired by the swarm
//     builder);
//   - ICMP probe loss with bounded retransmits (wired into icmpsurvey).
//
// The wire-level mechanisms compose onto the netsim fabric through its
// Config.Faults hook factory (see Injector); the node- and swarm-level
// mechanisms are consumed by internal/core when it builds the swarm. Every
// draw is a pure function of the seed and the entity it decides — a
// datagram's netsim.Fate, or a hash of an address or user ID (Selected) —
// so a scenario run is bit-for-bit reproducible for a given seed and any
// worker or shard count.
package faults

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

// GilbertElliott is a two-state Markov loss model: each destination's
// access link alternates between a good and a bad state with per-datagram
// transition probabilities, and drops datagrams with a state-dependent
// probability. It produces the bursty loss that independent uniform drops
// cannot.
type GilbertElliott struct {
	// PGoodBad and PBadGood are the per-datagram transition probabilities
	// good->bad and bad->good.
	PGoodBad, PBadGood float64
	// LossGood and LossBad are the drop probabilities in each state.
	LossGood, LossBad float64
}

// Blackout is a timed partition: during [Start, End) (offsets from the
// simulation epoch) every datagram to or from a matching address is dropped.
type Blackout struct {
	Start, End time.Duration
	// Prefixes are explicit address spans taken down by the blackout.
	Prefixes []iputil.Prefix
	// FracOf24s additionally blacks out a deterministic, hash-selected
	// fraction of all /24 networks — scripting a partition without knowing
	// the world's prefixes.
	FracOf24s float64
}

// RateLimit models receiver-side rate limiting (ICMP rate limits, NAT
// connection-table pressure): each destination address owns a token bucket
// refilled in virtual time, and datagrams beyond the budget are dropped.
type RateLimit struct {
	// RatePerSec is the sustained tokens-per-second refill per destination.
	RatePerSec float64
	// Burst is the bucket capacity.
	Burst float64
	// QueriesOnly restricts the limiter to parseable KRPC queries, the
	// shape of an unsolicited probe; responses and garbage pass freely.
	QueriesOnly bool
}

// Corruption mutates delivered datagrams with a given probability: byte
// truncation, bit flips, or compact-node-list damage (truncated lists, bad
// lengths) — the malformed-KRPC shapes consumers must survive.
type Corruption struct {
	// Prob is the per-datagram corruption probability on the deliver side.
	Prob float64
}

// Byzantine marks a fraction of DHT nodes as adversarial: they answer
// find_node with fabricated neighbours instead of routing-table contents,
// poisoning the crawler's discovery frontier with phantom endpoints.
type Byzantine struct {
	// Frac is the fraction of swarm nodes acting byzantine, selected
	// deterministically by hashing the node's user ID with the seed.
	Frac float64
	// Nodes is how many fabricated neighbours each response carries;
	// 0 means 8 (a full BEP 5 bucket).
	Nodes int
}

// RestartStorm is mass endpoint churn: at offset At from the simulation
// epoch, a hash-selected fraction of public users restart their clients
// simultaneously (new port, new node ID) — the §3.1 stale-information
// confound at its worst.
type RestartStorm struct {
	At   time.Duration
	Frac float64
}

// ICMPFaults shapes the Cai et al. ICMP baseline: each ECHO transmission is
// lost with ProbeLoss probability, and the prober retries a silent address
// up to Retransmits extra times per round before scoring it unresponsive.
type ICMPFaults struct {
	ProbeLoss   float64
	Retransmits int
}

// Scenario is a named, scripted set of faults injected into one study run.
// The zero value (and a nil *Scenario) means fault-free.
type Scenario struct {
	Name        string
	Description string

	Gilbert    *GilbertElliott
	Blackouts  []Blackout
	RateLimit  *RateLimit
	Corruption *Corruption
	Byzantine  *Byzantine
	Storms     []RestartStorm
	ICMP       *ICMPFaults
}

func probErr(what string, v float64) error {
	if v < 0 || v > 1 {
		return fmt.Errorf("faults: %s %v out of range [0, 1]", what, v)
	}
	return nil
}

// Validate checks every parameter the same way netsim validates its Config:
// user-supplied flag values surface as errors, never panics.
func (s *Scenario) Validate() error {
	if s == nil {
		return nil
	}
	if g := s.Gilbert; g != nil {
		for what, v := range map[string]float64{
			"gilbert PGoodBad": g.PGoodBad, "gilbert PBadGood": g.PBadGood,
			"gilbert LossGood": g.LossGood, "gilbert LossBad": g.LossBad,
		} {
			if err := probErr(what, v); err != nil {
				return err
			}
		}
	}
	for i, b := range s.Blackouts {
		if b.Start < 0 || b.End <= b.Start {
			return fmt.Errorf("faults: blackout %d window [%v, %v) is empty or negative", i, b.Start, b.End)
		}
		if err := probErr(fmt.Sprintf("blackout %d FracOf24s", i), b.FracOf24s); err != nil {
			return err
		}
		if len(b.Prefixes) == 0 && b.FracOf24s == 0 {
			return fmt.Errorf("faults: blackout %d matches no addresses", i)
		}
	}
	if r := s.RateLimit; r != nil {
		if r.RatePerSec <= 0 {
			return fmt.Errorf("faults: rate limit %v/s must be positive", r.RatePerSec)
		}
		if r.Burst < 1 {
			return fmt.Errorf("faults: rate-limit burst %v must be >= 1", r.Burst)
		}
	}
	if c := s.Corruption; c != nil {
		if err := probErr("corruption Prob", c.Prob); err != nil {
			return err
		}
	}
	if b := s.Byzantine; b != nil {
		if err := probErr("byzantine Frac", b.Frac); err != nil {
			return err
		}
		if b.Nodes < 0 || b.Nodes > 64 {
			return fmt.Errorf("faults: byzantine Nodes %d out of range [0, 64]", b.Nodes)
		}
	}
	for i, st := range s.Storms {
		if st.At < 0 {
			return fmt.Errorf("faults: storm %d At %v is negative", i, st.At)
		}
		if st.Frac <= 0 || st.Frac > 1 {
			return fmt.Errorf("faults: storm %d Frac %v out of range (0, 1]", i, st.Frac)
		}
	}
	if ic := s.ICMP; ic != nil {
		if ic.ProbeLoss < 0 || ic.ProbeLoss >= 1 {
			return fmt.Errorf("faults: ICMP probe loss %v out of range [0, 1)", ic.ProbeLoss)
		}
		if ic.Retransmits < 0 || ic.Retransmits > 16 {
			return fmt.Errorf("faults: ICMP retransmits %d out of range [0, 16]", ic.Retransmits)
		}
	}
	return nil
}

// catalogue is the named scenario library. Each entry is "moderate": strong
// enough to matter, weak enough that the detectors should still work — the
// resilience suite pins the tolerance bands.
var catalogue = map[string]*Scenario{
	"bursty": {
		Name:        "bursty",
		Description: "Gilbert-Elliott bursty link loss on top of the base fabric",
		Gilbert:     &GilbertElliott{PGoodBad: 0.02, PBadGood: 0.25, LossGood: 0.02, LossBad: 0.85},
	},
	"blackout": {
		Name:        "blackout",
		Description: "30% of /24s unreachable between +30m and +90m (partition)",
		Blackouts:   []Blackout{{Start: 30 * time.Minute, End: 90 * time.Minute, FracOf24s: 0.30}},
	},
	"ratelimit": {
		Name:        "ratelimit",
		Description: "per-destination token bucket dropping excess inbound queries",
		RateLimit:   &RateLimit{RatePerSec: 0.5, Burst: 6, QueriesOnly: true},
	},
	"corrupt": {
		Name:        "corrupt",
		Description: "20% of delivered datagrams corrupted or truncated",
		Corruption:  &Corruption{Prob: 0.20},
	},
	"byzantine": {
		Name:        "byzantine",
		Description: "20% of DHT nodes answer find_node with fabricated neighbours",
		Byzantine:   &Byzantine{Frac: 0.20, Nodes: 8},
	},
	"storm": {
		Name:        "storm",
		Description: "half of all public clients restart simultaneously at +6h",
		Storms:      []RestartStorm{{At: 6 * time.Hour, Frac: 0.5}},
	},
	"hostile": {
		Name:        "hostile",
		Description: "everything at once, milder: bursty loss, a short partition, rate limits, corruption, byzantine nodes, a storm, ICMP probe loss",
		Gilbert:     &GilbertElliott{PGoodBad: 0.01, PBadGood: 0.4, LossGood: 0.01, LossBad: 0.6},
		Blackouts:   []Blackout{{Start: 45 * time.Minute, End: 75 * time.Minute, FracOf24s: 0.15}},
		RateLimit:   &RateLimit{RatePerSec: 1, Burst: 10, QueriesOnly: true},
		Corruption:  &Corruption{Prob: 0.05},
		Byzantine:   &Byzantine{Frac: 0.10, Nodes: 8},
		Storms:      []RestartStorm{{At: 12 * time.Hour, Frac: 0.25}},
		ICMP:        &ICMPFaults{ProbeLoss: 0.15, Retransmits: 2},
	},
}

// Names returns the catalogue's scenario names, sorted.
func Names() []string {
	out := make([]string, 0, len(catalogue))
	for name := range catalogue {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Lookup resolves a scenario name; "" and "none" mean fault-free (nil). The
// returned scenario is a shallow copy so callers may adjust it.
func Lookup(name string) (*Scenario, error) {
	if name == "" || name == "none" {
		return nil, nil
	}
	scn, ok := catalogue[name]
	if !ok {
		return nil, fmt.Errorf("faults: unknown scenario %q (have: %s, none)", name, strings.Join(Names(), ", "))
	}
	cp := *scn
	return &cp, nil
}
