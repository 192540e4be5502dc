package crawler

import "github.com/reuseblock/reuseblock/internal/iputil"

// The paper notes its single-vantage crawler concentrated all reply traffic
// on one network and suggests "having the crawler at multiple vantage
// points in different networks" (§3.1). This file merges the results of
// several crawler instances into one view.

// MergeObservations unions NAT observations from multiple vantage points:
// an address is NATed if any vantage confirmed it; the user lower bound is
// the maximum any vantage established (each is a valid lower bound); ports
// seen and the earliest confirmation are combined.
//
// Each group must be sorted by address, as Crawler.NATed returns it: the
// merge is a k-way merge over the groups' heads. Every combining operation
// is a max or a min, so the result is invariant under group order, and the
// result slice is the only allocation.
func MergeObservations(groups ...[]NATObservation) []NATObservation {
	total := 0
	for _, group := range groups {
		total += len(group)
	}
	dst := make([]NATObservation, 0, total)
	var idxBuf [16]int
	var idx []int
	if len(groups) <= len(idxBuf) {
		idx = idxBuf[:len(groups)]
	} else {
		idx = make([]int, len(groups))
	}
	for {
		best := -1
		var bestAddr iputil.Addr
		for g, group := range groups {
			if idx[g] >= len(group) {
				continue
			}
			if a := group[idx[g]].Addr; best < 0 || a < bestAddr {
				best, bestAddr = g, a
			}
		}
		if best < 0 {
			return dst
		}
		merged := groups[best][idx[best]]
		idx[best]++
		// Consume every remaining observation of this address, across all
		// groups and within each (a group may carry duplicates).
		for g, group := range groups {
			for idx[g] < len(group) && group[idx[g]].Addr == bestAddr {
				o := group[idx[g]]
				if o.Users > merged.Users {
					merged.Users = o.Users
				}
				if o.PortsSeen > merged.PortsSeen {
					merged.PortsSeen = o.PortsSeen
				}
				if o.FirstConfirmed.Before(merged.FirstConfirmed) {
					merged.FirstConfirmed = o.FirstConfirmed
				}
				idx[g]++
			}
		}
		dst = append(dst, merged)
	}
}

// MergeStats combines per-vantage crawl statistics: counters add up, unique
// counts take the union sizes supplied by the caller (pass the merged sets'
// sizes), and the response rate is recomputed over the combined traffic —
// never averaged, so a merge of all-zero stats stays 0 instead of NaN.
//
// SimultaneousMax is the maximum across vantages, not the sum: each
// vantage's value is a lower bound on simultaneous users behind one
// address, established by one ping round's distinct (port, node_id) count.
// Two vantages may count the same users, so adding the bounds could exceed
// the truth; the largest single bound is the tightest claim that is still
// guaranteed valid. The merge is order-invariant: every field is a sum, a
// max, or derived from sums.
func MergeStats(stats ...Stats) Stats {
	var out Stats
	for _, s := range stats {
		out.GetNodesSent += s.GetNodesSent
		out.GetNodesReplies += s.GetNodesReplies
		out.PingsSent += s.PingsSent
		out.PingReplies += s.PingReplies
		out.Timeouts += s.Timeouts
		out.Retries += s.Retries
		out.LateReplies += s.LateReplies
		out.Evicted += s.Evicted
		out.ScopeSuppressed += s.ScopeSuppressed
		out.PingRoundsRun += s.PingRoundsRun
		out.SweepsRun += s.SweepsRun
		if s.SimultaneousMax > out.SimultaneousMax {
			out.SimultaneousMax = s.SimultaneousMax
		}
	}
	out.MessagesSent = out.GetNodesSent + out.PingsSent
	out.MessagesReceived = out.GetNodesReplies + out.PingReplies
	if out.MessagesSent > 0 {
		out.ResponseRate = float64(out.MessagesReceived) / float64(out.MessagesSent)
	}
	return out
}
