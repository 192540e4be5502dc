package netsim

import "github.com/reuseblock/reuseblock/internal/obs"

// Record adds this stats snapshot to the registry's fabric counters. All
// five are deterministic per seed and independent of the shard count, so
// summing them across vantage instances is deterministic for any worker
// count. Nil-safe: a nil registry records nothing.
func (s Stats) Record(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("netsim_sent_total").Add(s.Sent)
	reg.Counter("netsim_delivered_total").Add(s.Delivered)
	reg.Counter("netsim_dropped_total").Add(s.Dropped)
	reg.Counter("netsim_noroute_total").Add(s.NoRoute)
	reg.Counter("netsim_fault_dropped_total").Add(s.FaultDropped)
}
