package faults

import "github.com/reuseblock/reuseblock/internal/obs"

// Record adds this injector snapshot to the registry, labelled per scenario
// and per mechanism so a run's /metrics answers "what did the fault injector
// actually drop, and why". The counters are deterministic, so sums across
// vantage injectors are identical for any worker or shard count.
// Nil-safe: a nil registry records nothing.
func (s Stats) Record(reg *obs.Registry, scenario string) {
	if reg == nil {
		return
	}
	if scenario == "" {
		scenario = "custom"
	}
	for _, mc := range []struct {
		mechanism string
		n         int64
	}{
		{"burst", s.BurstDropped},
		{"blackout", s.BlackoutDropped},
		{"ratelimit", s.RateLimited},
		{"corrupt", s.Corrupted},
	} {
		reg.Counter(obs.Name("faults_injected_total",
			"scenario", scenario, "mechanism", mc.mechanism)).Add(mc.n)
	}
}
