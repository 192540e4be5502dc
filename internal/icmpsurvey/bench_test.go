// External test package: the benchmark drives Run as core.Study does, over
// a generated world's Responder.
package icmpsurvey_test

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/icmpsurvey"
	"github.com/reuseblock/reuseblock/internal/iputil"
)

// countingWorld wraps a world's responder and counts the answers the
// survey asks for.
type countingWorld struct {
	w     *blgen.World
	calls atomic.Int64
}

func (c *countingWorld) Block(block iputil.Prefix) func(iputil.Addr, time.Time) (bool, time.Time) {
	responds := c.w.Block(block)
	return func(addr iputil.Addr, at time.Time) (bool, time.Time) {
		c.calls.Add(1)
		return responds(addr, at)
	}
}

// worldBlocks returns every /24 of w.
func worldBlocks(w *blgen.World) []iputil.Prefix {
	var blocks []iputil.Prefix
	w.PrefixTable.Walk(func(p iputil.Prefix, _ *blgen.PrefixInfo) bool {
		blocks = append(blocks, p)
		return true
	})
	return blocks
}

// TestSurveyResponderCalls is the survey's cost ratchet: over a generated
// world it asks for at most two answers per address plus per lease slot an
// address lives through, never one per probe.
func TestSurveyResponderCalls(t *testing.T) {
	w := blgen.Generate(blgen.TestParams(1))
	cfg := icmpsurvey.Config{
		Blocks:   worldBlocks(w),
		Start:    w.RIPEStart,
		Duration: 14 * 24 * time.Hour,
		Interval: time.Hour,
	}
	addrs, slots := 0, 0
	for _, b := range cfg.Blocks {
		addrs += b.Size()
		if pi, _ := w.PrefixOf(b.Base()); pi.Kind == blgen.KindDynamic {
			lease := time.Duration(pi.MeanLeaseHours) * time.Hour
			slots += b.Size() * int(1+(cfg.Duration+lease-1)/lease)
		}
	}
	c := &countingWorld{w: w}
	res := icmpsurvey.Run(c, cfg)
	calls := c.calls.Load()
	if bound := int64(2 * (addrs + slots)); calls > bound {
		t.Fatalf("%d responder calls for %d probes, bound %d (%d addresses, %d lease slots)",
			calls, res.ProbesSent, bound, addrs, slots)
	}
	if res.ProbesSent != int64(addrs)*14*24 {
		t.Fatalf("ProbesSent = %d, want %d", res.ProbesSent, addrs*14*24)
	}
	t.Logf("%d responder calls for %d probes (%d addresses, %d lease slots)", calls, res.ProbesSent, addrs, slots)
}

// BenchmarkSurveyWorld surveys every /24 of a small generated world for a
// week of hourly rounds, sequentially — the study's ICMP stage in
// miniature. It reports responder_calls, the answers asked for per
// survey: the work scales with how often answers change, not with the
// probes accounted. Run with -benchmem: allocations scale with
// ever-responsive addresses, not with probed ones.
func BenchmarkSurveyWorld(b *testing.B) {
	c := &countingWorld{w: blgen.Generate(blgen.TestParams(1))}
	cfg := icmpsurvey.Config{
		Blocks:   worldBlocks(c.w),
		Start:    c.w.RIPEStart,
		Duration: 7 * 24 * time.Hour,
		Interval: time.Hour,
		Workers:  1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var res *icmpsurvey.Result
	for i := 0; i < b.N; i++ {
		res = icmpsurvey.Run(c, cfg)
	}
	b.ReportMetric(float64(c.calls.Load())/float64(b.N), "responder_calls")
	b.ReportMetric(float64(len(res.PerAddr)), "responsive")
}
