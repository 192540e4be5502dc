package faults

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		scn  Scenario
	}{
		{"gilbert prob", Scenario{Gilbert: &GilbertElliott{PGoodBad: 1.5}}},
		{"gilbert negative", Scenario{Gilbert: &GilbertElliott{LossBad: -0.1}}},
		{"blackout empty window", Scenario{Blackouts: []Blackout{{Start: time.Hour, End: time.Hour, FracOf24s: 0.5}}}},
		{"blackout negative", Scenario{Blackouts: []Blackout{{Start: -time.Hour, End: time.Hour, FracOf24s: 0.5}}}},
		{"blackout no match", Scenario{Blackouts: []Blackout{{Start: 0, End: time.Hour}}}},
		{"ratelimit zero rate", Scenario{RateLimit: &RateLimit{RatePerSec: 0, Burst: 5}}},
		{"ratelimit tiny burst", Scenario{RateLimit: &RateLimit{RatePerSec: 1, Burst: 0.5}}},
		{"corruption prob", Scenario{Corruption: &Corruption{Prob: 2}}},
		{"byzantine frac", Scenario{Byzantine: &Byzantine{Frac: -0.2}}},
		{"byzantine nodes", Scenario{Byzantine: &Byzantine{Frac: 0.1, Nodes: 1000}}},
		{"storm frac zero", Scenario{Storms: []RestartStorm{{At: time.Hour, Frac: 0}}}},
		{"storm negative at", Scenario{Storms: []RestartStorm{{At: -time.Second, Frac: 0.5}}}},
		{"icmp loss one", Scenario{ICMP: &ICMPFaults{ProbeLoss: 1}}},
		{"icmp retransmits", Scenario{ICMP: &ICMPFaults{Retransmits: 99}}},
	}
	for _, tc := range cases {
		if err := tc.scn.Validate(); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
	var nilScn *Scenario
	if err := nilScn.Validate(); err != nil {
		t.Errorf("nil scenario: %v", err)
	}
	if _, err := NewInjector(&Scenario{Gilbert: &GilbertElliott{PGoodBad: 7}}, 1); err == nil {
		t.Error("NewInjector accepted an invalid scenario")
	}
}

func TestCatalogueValidAndLookup(t *testing.T) {
	for _, name := range Names() {
		scn, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if err := scn.Validate(); err != nil {
			t.Errorf("catalogue scenario %q invalid: %v", name, err)
		}
		if scn.Name != name || scn.Description == "" {
			t.Errorf("scenario %q: bad metadata", name)
		}
	}
	for _, name := range []string{"", "none"} {
		if scn, err := Lookup(name); scn != nil || err != nil {
			t.Errorf("Lookup(%q) = %v, %v; want nil, nil", name, scn, err)
		}
	}
	if _, err := Lookup("nope"); err == nil || !strings.Contains(err.Error(), "bursty") {
		t.Errorf("Lookup(nope) error should list scenarios, got %v", err)
	}
}

func TestNilAndEmptyInjector(t *testing.T) {
	for _, scn := range []*Scenario{nil, {Name: "wireless-free", Byzantine: &Byzantine{Frac: 0.5}}} {
		inj, err := NewInjector(scn, 1)
		if err != nil {
			t.Fatal(err)
		}
		if inj != nil {
			t.Fatalf("scenario %v: want nil injector", scn)
		}
		var cfg netsim.Config
		inj.Install(&cfg) // must not panic
		if cfg.Faults != nil {
			t.Fatal("nil injector installed hooks")
		}
		if inj.Stats() != (Stats{}) {
			t.Fatal("nil injector has stats")
		}
	}
}

func ep(a, b, c, d byte, port uint16) netsim.Endpoint {
	return netsim.Endpoint{Addr: iputil.AddrFrom4(a, b, c, d), Port: port}
}

// newHook builds an injector and the hook of one fabric shard.
func newHook(t *testing.T, scn *Scenario, seed int64) (*Injector, netsim.FaultHook) {
	t.Helper()
	inj, err := NewInjector(scn, seed)
	if err != nil {
		t.Fatal(err)
	}
	var cfg netsim.Config
	inj.Install(&cfg)
	return inj, cfg.Faults()
}

func TestGilbertElliottBurstiness(t *testing.T) {
	// A mostly-good link with brutal bad states must (a) lose far fewer
	// datagrams than the bad-state rate overall, and (b) lose them in
	// runs, which independent loss at the same average would not produce.
	scn := &Scenario{Gilbert: &GilbertElliott{PGoodBad: 0.02, PBadGood: 0.25, LossGood: 0, LossBad: 1}}
	inj, hook := newHook(t, scn, 42)
	const n = 20000
	drops := make([]bool, n)
	for i := range drops {
		d := netsim.Datagram{From: ep(10, 0, 0, 1, 1), To: ep(10, 0, 0, 2, 1), Seq: uint64(i), Payload: []byte("x")}
		drops[i] = hook(d) == nil
	}
	total, runs, maxRun, cur := 0, 0, 0, 0
	for _, d := range drops {
		if d {
			total++
			cur++
			if cur > maxRun {
				maxRun = cur
			}
		} else {
			if cur > 0 {
				runs++
			}
			cur = 0
		}
	}
	if cur > 0 {
		runs++
	}
	// Stationary bad-state share of the destination's link is
	// PGoodBad/(PGoodBad+PBadGood) ~ 7.4%.
	if total < n/50 || total > n/5 {
		t.Fatalf("total drops %d implausible for moderate bursty loss over %d", total, n)
	}
	meanRun := float64(total) / float64(runs)
	if meanRun < 2 {
		t.Fatalf("mean drop-run length %.2f; bursty loss should clump (runs=%d)", meanRun, runs)
	}
	if maxRun < 5 {
		t.Fatalf("max drop run %d; expected long bad-state bursts", maxRun)
	}
	if got := inj.Stats().BurstDropped; got != int64(total) {
		t.Fatalf("BurstDropped = %d, want %d", got, total)
	}
}

func TestBlackoutWindowAndSelection(t *testing.T) {
	scn := &Scenario{Blackouts: []Blackout{{
		Start:    10 * time.Minute,
		End:      20 * time.Minute,
		Prefixes: []iputil.Prefix{iputil.MustParsePrefix("203.0.113.0/24")},
	}}}
	inj, hook := newHook(t, scn, 7)
	inside := ep(203, 0, 113, 9, 1)
	outside := ep(198, 51, 100, 9, 1)
	var at time.Duration
	pass := func(from, to netsim.Endpoint) bool {
		return hook(netsim.Datagram{At: at, From: from, To: to, Payload: []byte("x")}) != nil
	}
	if !pass(inside, outside) {
		t.Fatal("blackout active before its window")
	}
	at = 15 * time.Minute
	if pass(inside, outside) || pass(outside, inside) {
		t.Fatal("blackout should drop traffic to and from the prefix inside the window")
	}
	if !pass(outside, outside) {
		t.Fatal("blackout dropped unrelated traffic")
	}
	at = 25 * time.Minute
	if !pass(inside, outside) {
		t.Fatal("blackout active after its window")
	}
	if got := inj.Stats().BlackoutDropped; got != 2 {
		t.Fatalf("BlackoutDropped = %d, want 2", got)
	}

	// Hash selection: the chosen share of /24s approximates the fraction
	// and is identical across injectors with the same seed.
	picked := 0
	for i := 0; i < 4096; i++ {
		if Selected(7, uint64(i), 0.3) {
			picked++
		}
	}
	if picked < 4096*25/100 || picked > 4096*35/100 {
		t.Fatalf("Selected picked %d/4096, want ~30%%", picked)
	}
	if Selected(7, 99, 0.3) != Selected(7, 99, 0.3) {
		t.Fatal("Selected not deterministic")
	}
	if Selected(1, 99, 0) || !Selected(1, 99, 1) {
		t.Fatal("Selected edge fractions wrong")
	}
}

func TestRateLimitTokenBucket(t *testing.T) {
	scn := &Scenario{RateLimit: &RateLimit{RatePerSec: 1, Burst: 3}}
	inj, hook := newHook(t, scn, 1)
	src, dst, other := ep(10, 0, 0, 1, 1), ep(10, 0, 0, 2, 1), ep(10, 0, 0, 3, 1)
	var at time.Duration
	deliver := func(to netsim.Endpoint) bool {
		return hook(netsim.Datagram{At: at, From: src, To: to, Payload: []byte("x")}) != nil
	}
	// Burst of 3 passes, the 4th is dropped; an unrelated destination
	// still has its own full bucket.
	for i := 0; i < 3; i++ {
		if !deliver(dst) {
			t.Fatalf("datagram %d within burst dropped", i)
		}
	}
	if deliver(dst) {
		t.Fatal("datagram beyond burst passed")
	}
	if !deliver(other) {
		t.Fatal("rate limit leaked across destinations")
	}
	// Virtual time refills the bucket.
	at = 2 * time.Second
	if !deliver(dst) || !deliver(dst) {
		t.Fatal("bucket did not refill with virtual time")
	}
	if deliver(dst) {
		t.Fatal("bucket over-refilled")
	}
	if got := inj.Stats().RateLimited; got != 2 {
		t.Fatalf("RateLimited = %d, want 2", got)
	}
}

func TestRateLimitQueriesOnly(t *testing.T) {
	scn := &Scenario{RateLimit: &RateLimit{RatePerSec: 0.001, Burst: 1, QueriesOnly: true}}
	_, hook := newHook(t, scn, 1)
	var id krpc.NodeID
	query, err := krpc.NewPing([]byte("aa"), id).AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := krpc.NewPingResponse([]byte("aa"), id, []byte("RB01")).AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := ep(10, 0, 0, 1, 1), ep(10, 0, 0, 2, 1)
	deliver := func(p []byte) []byte { return hook(netsim.Datagram{From: src, To: dst, Payload: p}) }
	if deliver(query) == nil {
		t.Fatal("first query dropped")
	}
	if deliver(query) != nil {
		t.Fatal("second query passed an exhausted bucket")
	}
	// Responses and garbage are never charged or dropped.
	for i := 0; i < 5; i++ {
		if deliver(resp) == nil {
			t.Fatal("response dropped by a QueriesOnly limiter")
		}
		if deliver([]byte("not krpc")) == nil {
			t.Fatal("garbage dropped by a QueriesOnly limiter")
		}
	}
}

func TestCorruptionShapes(t *testing.T) {
	scn := &Scenario{Corruption: &Corruption{Prob: 1}}
	inj, hook := newHook(t, scn, 3)
	var self, target krpc.NodeID
	nodes := []krpc.NodeInfo{
		{Addr: iputil.AddrFrom4(1, 2, 3, 4), Port: 6881},
		{Addr: iputil.AddrFrom4(5, 6, 7, 8), Port: 6882},
	}
	orig, err := krpc.NewFindNodeResponse([]byte("tx"), self, nodes, []byte("RB01")).AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = target
	var m krpc.Message
	short := "d1:rd2:id20:" + string(self[:]) + "5:nodes5:shorte1:t2:tx1:y1:re"
	if krpc.UnmarshalInto([]byte(short), &m) == nil {
		t.Fatal("sanity: UnmarshalInto should reject a bad node list length")
	}
	badLen, mutated := 0, 0
	for i := 0; i < 300; i++ {
		out := hook(netsim.Datagram{From: ep(1, 1, 1, 1, 1), To: ep(2, 2, 2, 2, 2), Seq: uint64(i), Payload: orig})
		if out == nil {
			t.Fatal("corruption must mutate, not drop")
		}
		if bytes.Equal(out, orig) {
			continue
		}
		mutated++
		if krpc.UnmarshalInto(out, &m) == nil && m.Kind == krpc.KindResponse {
			// Valid bencoding that survived — it must be the
			// damaged-nodes shape unless a bit flip landed in a
			// don't-care byte.
			continue
		}
		badLen++
	}
	if mutated < 290 {
		t.Fatalf("only %d/300 datagrams mutated at Prob=1", mutated)
	}
	if badLen == 0 {
		t.Fatal("no corruption produced a krpc-rejected datagram")
	}
	if got := inj.Stats().Corrupted; got != 300 {
		t.Fatalf("Corrupted = %d, want 300", got)
	}
	// The damaged-nodes shape specifically: force it by running many
	// trials and checking that some outputs are valid bencoding whose
	// nodes list length is not a multiple of the compact node size.
	sawBadNodeLen := false
	for i := 0; i < 300 && !sawBadNodeLen; i++ {
		fate := netsim.NewFate(3, ep(1, 1, 1, 1, 1), ep(2, 2, 2, 2, 2), uint64(i))
		out := corrupt(orig, &fate)
		if err := krpc.UnmarshalInto(out, &m); err != nil && errors.Is(err, krpc.ErrMalformed) {
			sawBadNodeLen = sawBadNodeLen || bytes.Contains(out, []byte("5:nodes"))
		}
	}
	if !sawBadNodeLen {
		t.Fatal("never saw a truncated compact node list")
	}
}

func TestInjectorDeterminism(t *testing.T) {
	run := func(seed int64) (Stats, string) {
		scn, err := Lookup("hostile")
		if err != nil {
			t.Fatal(err)
		}
		inj, hook := newHook(t, scn, seed)
		var id krpc.NodeID
		query, _ := krpc.NewPing([]byte("aa"), id).AppendMarshal(nil)
		var trace []byte
		for i := 0; i < 2000; i++ {
			from := ep(10, 0, byte(i/256), byte(i%256), 1)
			to := ep(172, 16, byte(i%7), byte(i%251), 1)
			out := hook(netsim.Datagram{At: time.Duration(i+1) * 150 * time.Millisecond, From: from, To: to, Payload: query})
			switch {
			case out == nil:
				trace = append(trace, 'D')
			case bytes.Equal(out, query):
				trace = append(trace, '.')
			default:
				trace = append(trace, 'C')
			}
		}
		return inj.Stats(), string(trace)
	}
	s1, t1 := run(99)
	s2, t2 := run(99)
	if s1 != s2 || t1 != t2 {
		t.Fatalf("same seed diverged: %+v vs %+v", s1, s2)
	}
	s3, t3 := run(100)
	if t1 == t3 {
		t.Fatal("different seeds produced identical fault traces")
	}
	_ = s3
	if s1.Total() == 0 || s1.Corrupted == 0 {
		t.Fatalf("hostile scenario injected nothing: %+v", s1)
	}
}

// TestInjectorOnNetwork runs the injector against a real simulated network
// and checks the conservation property extends to fault drops.
func TestInjectorOnNetwork(t *testing.T) {
	clock := netsim.NewClock()
	scn := &Scenario{
		Gilbert:   &GilbertElliott{PGoodBad: 0.1, PBadGood: 0.3, LossGood: 0.05, LossBad: 0.9},
		RateLimit: &RateLimit{RatePerSec: 2, Burst: 4},
	}
	inj, err := NewInjector(scn, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := netsim.Config{Seed: 5}
	inj.Install(&cfg)
	net, err := netsim.NewNetwork(clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := net.Listen(ep(10, 0, 0, 1, 1000))
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Listen(ep(10, 0, 0, 2, 1000))
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	b.SetHandler(func(from netsim.Endpoint, payload []byte) { got++ })
	dst := ep(10, 0, 0, 2, 1000)
	for i := 0; i < 500; i++ {
		a.Send(dst, []byte("probe"))
		clock.RunFor(50 * time.Millisecond)
	}
	clock.Drain(1 << 20)
	st := net.Stats()
	if st.Sent != st.Delivered+st.Dropped+st.NoRoute+st.FaultDropped {
		t.Fatalf("conservation violated: %+v", st)
	}
	is := inj.Stats()
	if st.FaultDropped != is.Total() {
		t.Fatalf("network counted %d fault drops, injector %d", st.FaultDropped, is.Total())
	}
	if is.BurstDropped == 0 || is.RateLimited == 0 {
		t.Fatalf("expected both mechanisms to fire: %+v", is)
	}
	if int64(got) != st.Delivered {
		t.Fatalf("receiver saw %d, network delivered %d", got, st.Delivered)
	}
}
