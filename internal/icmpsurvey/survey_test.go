package icmpsurvey

import (
	"sync"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

var start = time.Date(2019, 8, 3, 0, 0, 0, 0, time.UTC)

// leaseWorld models a /24 where each address is occupied in short random
// bursts — a DHCP pool — plus a /24 of always-on servers.
type leaseWorld struct {
	dynamic iputil.Prefix
	static  iputil.Prefix
	// Addresses follow a repeating on/off pattern with the given period,
	// occupied onFrac of the time.
	period time.Duration
	onFrac float64
}

// Block implements Responder; the pattern needs nothing resolved per block.
func (w *leaseWorld) Block(block iputil.Prefix) func(iputil.Addr, time.Time) (bool, time.Time) {
	return ResponderFunc(w.responds).Block(block)
}

func (w *leaseWorld) responds(addr iputil.Addr, at time.Time) bool {
	switch {
	case w.static.Contains(addr):
		return int(addr)%4 == 0 // a quarter of the block hosts servers
	case w.dynamic.Contains(addr):
		// Deterministic pseudo-random lease pattern: hash address and
		// period slot; occupied onFrac of the time in bursts.
		slot := at.Sub(start) / w.period
		h := uint64(addr)*2654435761 + uint64(slot)*40503
		h ^= h >> 13
		return float64(h%1000)/1000 < w.onFrac
	default:
		return false
	}
}

func TestSurveySeparatesDynamicFromStatic(t *testing.T) {
	w := &leaseWorld{
		dynamic: iputil.MustParsePrefix("10.1.0.0/24"),
		static:  iputil.MustParsePrefix("10.2.0.0/24"),
		period:  6 * time.Hour,
		onFrac:  0.5,
	}
	res := Run(w, Config{
		Blocks:   []iputil.Prefix{w.dynamic, w.static},
		Start:    start,
		Duration: 14 * 24 * time.Hour,
		Interval: time.Hour,
	})
	if len(res.Blocks) != 2 {
		t.Fatalf("blocks = %d", len(res.Blocks))
	}
	if !res.DynamicBlocks.Contains(w.dynamic) {
		t.Error("dynamic block not classified dynamic")
	}
	if res.DynamicBlocks.Contains(w.static) {
		t.Error("static block misclassified dynamic")
	}
}

func TestSurveyMetrics(t *testing.T) {
	// An address that is up for the first half of the window only.
	half := 24 * time.Hour
	r := ResponderFunc(func(addr iputil.Addr, at time.Time) bool {
		return addr == iputil.MustParseAddr("10.0.0.1") && at.Sub(start) < half
	})
	res := Run(r, Config{
		Blocks:   []iputil.Prefix{iputil.MustParsePrefix("10.0.0.0/24")},
		Start:    start,
		Duration: 48 * time.Hour,
		Interval: time.Hour,
	})
	m := res.PerAddr[iputil.MustParseAddr("10.0.0.1")]
	if m == nil {
		t.Fatal("no metrics for the live address")
	}
	if m.Probes != 48 || m.Replies != 24 {
		t.Errorf("probes/replies = %d/%d", m.Probes, m.Replies)
	}
	if m.A != 0.5 {
		t.Errorf("A = %v", m.A)
	}
	if m.Transitions != 1 {
		t.Errorf("Transitions = %d", m.Transitions)
	}
	if m.MedianUptime != 24*time.Hour {
		t.Errorf("MedianUptime = %v", m.MedianUptime)
	}
	if len(res.PerAddr) != 1 {
		t.Errorf("PerAddr has %d entries, want only responsive ones", len(res.PerAddr))
	}
}

func TestSurveyMiddleboxFalseNegative(t *testing.T) {
	// A middlebox answering for the whole block makes a dynamic pool look
	// like an always-up farm — the documented weakness.
	block := iputil.MustParsePrefix("10.3.0.0/24")
	r := ResponderFunc(func(addr iputil.Addr, at time.Time) bool {
		return block.Contains(addr) // firewall replies for everything
	})
	res := Run(r, Config{
		Blocks:   []iputil.Prefix{block},
		Start:    start,
		Duration: 7 * 24 * time.Hour,
		Interval: time.Hour,
	})
	if res.DynamicBlocks.Contains(block) {
		t.Error("middlebox-covered block must not be classified dynamic")
	}
	if res.Blocks[0].MeanA != 1 {
		t.Errorf("MeanA = %v, want 1", res.Blocks[0].MeanA)
	}
}

func TestSurveyICMPFilteredBlock(t *testing.T) {
	// Networks filtering ICMP contribute nothing (undercounting).
	block := iputil.MustParsePrefix("10.4.0.0/24")
	r := ResponderFunc(func(iputil.Addr, time.Time) bool { return false })
	res := Run(r, Config{
		Blocks:   []iputil.Prefix{block},
		Start:    start,
		Duration: 24 * time.Hour,
	})
	if res.Blocks[0].Responsive != 0 || res.Blocks[0].Dynamic {
		t.Errorf("filtered block = %+v", res.Blocks[0])
	}
}

func TestSurveyMinResponsiveGuard(t *testing.T) {
	// A block with a single flapping host must not be classified.
	flapper := iputil.MustParseAddr("10.5.0.7")
	r := ResponderFunc(func(addr iputil.Addr, at time.Time) bool {
		return addr == flapper && at.Unix()/3600%2 == 0
	})
	res := Run(r, Config{
		Blocks:   []iputil.Prefix{iputil.MustParsePrefix("10.5.0.0/24")},
		Start:    start,
		Duration: 7 * 24 * time.Hour,
		Interval: time.Hour,
	})
	if res.Blocks[0].Dynamic {
		t.Error("one flapping host classified a whole block")
	}
}

func TestSurveyProbeAccounting(t *testing.T) {
	r := ResponderFunc(func(iputil.Addr, time.Time) bool { return false })
	res := Run(r, Config{
		Blocks:   []iputil.Prefix{iputil.MustParsePrefix("10.0.0.0/24")},
		Start:    start,
		Duration: 10 * time.Hour,
		Interval: time.Hour,
	})
	if res.ProbesSent != 256*10 {
		t.Errorf("ProbesSent = %d, want %d", res.ProbesSent, 256*10)
	}
}

// countingResponder counts Block calls per block and answers like a fixed
// per-address pattern.
type countingResponder struct {
	mu    sync.Mutex
	calls map[iputil.Prefix]int
}

func (c *countingResponder) Block(block iputil.Prefix) func(iputil.Addr, time.Time) (bool, time.Time) {
	c.mu.Lock()
	c.calls[block]++
	c.mu.Unlock()
	return ResponderFunc(func(addr iputil.Addr, at time.Time) bool {
		return int(addr)%3 == 0 && at.Unix()/3600%4 != 0
	}).Block(block)
}

// TestRunResolvesEachBlockOnce pins the survey contract: Run asks the
// Responder for each block exactly once, whatever the worker count, and
// probes every address of the block through the returned function.
func TestRunResolvesEachBlockOnce(t *testing.T) {
	var blocks []iputil.Prefix
	for i := 0; i < 9; i++ {
		blocks = append(blocks, iputil.PrefixFrom(iputil.AddrFrom4(10, 6, byte(i), 0), 24))
	}
	for _, workers := range []int{1, 4} {
		c := &countingResponder{calls: map[iputil.Prefix]int{}}
		res := Run(c, Config{
			Blocks:   blocks,
			Start:    start,
			Duration: 24 * time.Hour,
			Interval: time.Hour,
			Workers:  workers,
		})
		if len(c.calls) != len(blocks) {
			t.Fatalf("workers=%d: Block called for %d distinct blocks, want %d", workers, len(c.calls), len(blocks))
		}
		for _, b := range blocks {
			if n := c.calls[b]; n != 1 {
				t.Errorf("workers=%d: Block(%v) called %d times, want 1", workers, b, n)
			}
		}
		if want := int64(len(blocks) * 256 * 24); res.ProbesSent != want {
			t.Errorf("workers=%d: ProbesSent = %d, want %d", workers, res.ProbesSent, want)
		}
		want := 0
		for _, b := range blocks {
			for i := 0; i < b.Size(); i++ {
				if int(b.Nth(i))%3 == 0 {
					want++
				}
			}
		}
		if len(res.PerAddr) != want {
			t.Errorf("workers=%d: PerAddr has %d entries, want %d", workers, len(res.PerAddr), want)
		}
	}
}
