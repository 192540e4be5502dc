package ripeatlas

import (
	"slices"
	"sort"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/kneedle"
)

// DetectOptions tune the pipeline; zero values reproduce the paper.
type DetectOptions struct {
	// MinAllocations overrides the knee threshold with a fixed minimum
	// number of allocated addresses per probe; 0 uses kneedle (paper).
	MinAllocations int
	// MaxMeanChangeInterval is the maximum average time between address
	// changes for a probe to count as dynamic; 0 means 1 day (paper).
	MaxMeanChangeInterval time.Duration
	// ExpandBits is the prefix length dynamic addresses are expanded to;
	// 0 means /24 (paper). Ablations use other lengths.
	ExpandBits int
	// KneeSensitivity is the kneedle S parameter; 0 means 1.
	KneeSensitivity float64
}

func (o *DetectOptions) applyDefaults() {
	if o.MaxMeanChangeInterval <= 0 {
		o.MaxMeanChangeInterval = 24 * time.Hour
	}
	if o.ExpandBits <= 0 {
		o.ExpandBits = 24
	}
	if o.KneeSensitivity <= 0 {
		o.KneeSensitivity = 1
	}
}

// ProbeHistory aggregates one probe's allocation history.
type ProbeHistory struct {
	ProbeID int
	// Allocations are the distinct addresses in first-seen order.
	Allocations []iputil.Addr
	// Changes are the timestamps at which the address changed (the first
	// connect is not a change).
	Changes []time.Time
	// ASNs are the distinct AS numbers the addresses belonged to.
	ASNs []int
	// First and Last bound the probe's observed lifetime.
	First, Last time.Time
}

// MultiAS reports whether the probe held addresses in more than one AS.
func (h *ProbeHistory) MultiAS() bool { return len(h.ASNs) > 1 }

// MeanChangeInterval is the average time between address changes; ok is
// false for probes with fewer than two changes.
func (h *ProbeHistory) MeanChangeInterval() (time.Duration, bool) {
	if len(h.Changes) < 2 {
		return 0, false
	}
	span := h.Changes[len(h.Changes)-1].Sub(h.Changes[0])
	return span / time.Duration(len(h.Changes)-1), true
}

// Result is the full output of the detection pipeline, including the funnel
// accounting of Fig 4 and the Fig 2 curve.
type Result struct {
	// Probes is every probe history, keyed by probe ID.
	Probes map[int]*ProbeHistory
	// AllocationCounts is the number of addresses allocated per probe,
	// for all probes (the Fig 2 curve, unsorted).
	AllocationCounts []int
	// KneeThreshold is the allocation-count threshold in force (knee of
	// Fig 2, or the configured override).
	KneeThreshold int

	// Funnel stages (probe counts).
	TotalProbes    int
	MultiASProbes  int // excluded: addresses across multiple ASes
	NoChangeProbes int // probes that never changed address
	SameASProbes   int // probes with all changes inside one AS
	FrequentProbes int // >= KneeThreshold allocations
	DailyProbes    int // mean change interval <= 1 day (final)

	// Address sets at each funnel stage.
	AllAddresses      *iputil.Set // every address allocated to any probe
	SameASAddresses   *iputil.Set
	FrequentAddresses *iputil.Set
	DynamicAddresses  *iputil.Set // addresses of the final probes
	// DynamicPrefixes is DynamicAddresses expanded to ExpandBits.
	DynamicPrefixes *iputil.PrefixSet
	// RIPEPrefixes is every observed address expanded to ExpandBits — the
	// paper's "90.5K /24 RIPE prefixes" denominator.
	RIPEPrefixes *iputil.PrefixSet
	// DynamicProbeIDs lists the final (dynamic) probes.
	DynamicProbeIDs []int
}

// BuildHistories folds raw log entries into per-probe allocation histories.
// Entries may be unsorted: out-of-order input is sorted on a copy, input
// already in SortLogs order (SimulateFleet's output) is read as it is.
// Disconnect events bound lifetimes but only connect events carry
// allocations.
func BuildHistories(entries []LogEntry) map[int]*ProbeHistory {
	sorted := entries
	if !slices.IsSortedFunc(entries, compareLogs) {
		sorted = slices.Clone(entries)
		SortLogs(sorted)
	}
	probes := make(map[int]*ProbeHistory)
	current := make(map[int]iputil.Addr)
	seenAddr := make(map[int]map[iputil.Addr]bool)
	seenASN := make(map[int]map[int]bool)
	for _, e := range sorted {
		id, at := int(e.ProbeID), e.Time()
		h := probes[id]
		if h == nil {
			h = &ProbeHistory{ProbeID: id, First: at}
			probes[id] = h
			seenAddr[id] = make(map[iputil.Addr]bool)
			seenASN[id] = make(map[int]bool)
		}
		h.Last = at
		if e.Event != EventConnect {
			continue
		}
		if asn := int(e.ASN); !seenASN[id][asn] {
			seenASN[id][asn] = true
			h.ASNs = append(h.ASNs, asn)
		}
		prev, had := current[id]
		if had && prev == e.Addr {
			continue // reconnect on the same address: not an allocation
		}
		if had {
			h.Changes = append(h.Changes, at)
		}
		current[id] = e.Addr
		if !seenAddr[id][e.Addr] {
			seenAddr[id][e.Addr] = true
			h.Allocations = append(h.Allocations, e.Addr)
		}
	}
	return probes
}

// Detect runs the paper's full pipeline over raw connection logs.
func Detect(entries []LogEntry, opts DetectOptions) *Result {
	opts.applyDefaults()
	probes := BuildHistories(entries)
	res := &Result{
		Probes:            probes,
		AllAddresses:      iputil.NewSet(),
		SameASAddresses:   iputil.NewSet(),
		FrequentAddresses: iputil.NewSet(),
		DynamicAddresses:  iputil.NewSet(),
		DynamicPrefixes:   iputil.NewPrefixSet(),
		RIPEPrefixes:      iputil.NewPrefixSet(),
	}
	res.TotalProbes = len(probes)

	ids := make([]int, 0, len(probes))
	for id := range probes {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	var sameAS []*ProbeHistory
	for _, id := range ids {
		h := probes[id]
		res.AllocationCounts = append(res.AllocationCounts, len(h.Allocations))
		for _, a := range h.Allocations {
			res.AllAddresses.Add(a)
			res.RIPEPrefixes.Add(iputil.PrefixFrom(a, opts.ExpandBits))
		}
		switch {
		case h.MultiAS():
			res.MultiASProbes++
		case len(h.Changes) == 0:
			res.NoChangeProbes++
		default:
			sameAS = append(sameAS, h)
			res.SameASProbes++
			for _, a := range h.Allocations {
				res.SameASAddresses.Add(a)
			}
		}
	}

	// Stage 2: the knee threshold over the Fig 2 curve.
	res.KneeThreshold = opts.MinAllocations
	if res.KneeThreshold <= 0 {
		// The knee is judged on the log-scale curve, as plotted in Fig 2.
		knee, _, err := kneedle.FindSortedCounts(res.AllocationCounts,
			kneedle.Options{Sensitivity: opts.KneeSensitivity, LogY: true})
		if err != nil || knee < 2 {
			// Degenerate inputs (tiny fleets, no churners): fall back to
			// the paper's published threshold.
			knee = 8
		}
		res.KneeThreshold = knee
	}

	var frequent []*ProbeHistory
	for _, h := range sameAS {
		if len(h.Allocations) >= res.KneeThreshold {
			frequent = append(frequent, h)
			res.FrequentProbes++
			for _, a := range h.Allocations {
				res.FrequentAddresses.Add(a)
			}
		}
	}

	// Stage 3: probes that change addresses at least daily on average.
	for _, h := range frequent {
		mean, ok := h.MeanChangeInterval()
		if !ok || mean > opts.MaxMeanChangeInterval {
			continue
		}
		res.DailyProbes++
		res.DynamicProbeIDs = append(res.DynamicProbeIDs, h.ProbeID)
		for _, a := range h.Allocations {
			res.DynamicAddresses.Add(a)
			res.DynamicPrefixes.Add(iputil.PrefixFrom(a, opts.ExpandBits))
		}
	}
	return res
}
