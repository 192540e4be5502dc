// External test package: the benchmark drives Run as core.Study does, over
// a generated world's Responder.
package icmpsurvey_test

import (
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/icmpsurvey"
	"github.com/reuseblock/reuseblock/internal/iputil"
)

// BenchmarkSurveyWorld surveys every /24 of a small generated world for a
// week of hourly rounds, sequentially — the study's ICMP stage in
// miniature. Run with -benchmem: allocations scale with ever-responsive
// addresses, not with probed ones.
func BenchmarkSurveyWorld(b *testing.B) {
	w := blgen.Generate(blgen.TestParams(1))
	var blocks []iputil.Prefix
	w.PrefixTable.Walk(func(p iputil.Prefix, _ *blgen.PrefixInfo) bool {
		blocks = append(blocks, p)
		return true
	})
	cfg := icmpsurvey.Config{
		Blocks:   blocks,
		Start:    w.RIPEStart,
		Duration: 7 * 24 * time.Hour,
		Interval: time.Hour,
		Workers:  1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var res *icmpsurvey.Result
	for i := 0; i < b.N; i++ {
		res = icmpsurvey.Run(w, cfg)
	}
	b.ReportMetric(float64(res.ProbesSent)*float64(b.N)/b.Elapsed().Seconds(), "probes/s")
	b.ReportMetric(float64(len(res.PerAddr)), "responsive")
}
