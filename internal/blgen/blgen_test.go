package blgen

import (
	"slices"
	"testing"

	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/ripeatlas"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(TestParams(3))
	b := Generate(TestParams(3))
	if len(a.ASes) != len(b.ASes) || len(a.BTUsers) != len(b.BTUsers) ||
		len(a.Campaigns) != len(b.Campaigns) || len(a.RIPELogs) != len(b.RIPELogs) {
		t.Fatal("world sizes differ between identical seeds")
	}
	la, lb := a.Collection.Listings(), b.Collection.Listings()
	if len(la) != len(lb) {
		t.Fatalf("listings differ: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("listing %d differs", i)
		}
	}
	c := Generate(TestParams(4))
	if len(c.Campaigns) == len(a.Campaigns) && len(c.BTUsers) == len(a.BTUsers) {
		t.Error("different seeds produced identical world sizes (suspicious)")
	}
}

func TestTopologyInvariants(t *testing.T) {
	w := Generate(TestParams(1))
	seen := iputil.NewPrefixSet()
	for _, a := range w.ASes {
		if len(a.Prefixes) == 0 {
			t.Errorf("AS %d has no prefixes", a.ASN)
		}
		for _, pi := range a.Prefixes {
			if pi.ASN != a.ASN {
				t.Errorf("prefix %v has ASN %d, in AS %d", pi.Prefix, pi.ASN, a.ASN)
			}
			if pi.Prefix.Bits() != 24 {
				t.Errorf("prefix %v is not a /24", pi.Prefix)
			}
			if !seen.Add(pi.Prefix) {
				t.Errorf("prefix %v allocated twice", pi.Prefix)
			}
			if pi.Kind == KindDynamic && pi.MeanLeaseHours <= 0 {
				t.Errorf("dynamic prefix %v has no lease churn", pi.Prefix)
			}
		}
	}
}

func TestPrefixTableConsistency(t *testing.T) {
	w := Generate(TestParams(2))
	for _, a := range w.ASes {
		for _, pi := range a.Prefixes {
			got, ok := w.PrefixOf(pi.Prefix.Nth(100))
			if !ok || got.Prefix != pi.Prefix {
				t.Fatalf("PrefixOf(%v) = %v, %v", pi.Prefix.Nth(100), got, ok)
			}
		}
	}
	if _, ok := w.PrefixOf(iputil.MustParseAddr("1.2.3.4")); ok {
		t.Error("lookup outside the world succeeded")
	}
}

func TestNATTruthInvariants(t *testing.T) {
	w := Generate(TestParams(5))
	if len(w.NATs) == 0 {
		t.Fatal("no NATs generated")
	}
	for _, n := range w.NATs {
		if n.BTUsers > n.TotalUsers {
			t.Errorf("NAT %v: BT users %d > total %d", n.Addr, n.BTUsers, n.TotalUsers)
		}
		if n.TotalUsers < 2 {
			t.Errorf("NAT %v: only %d users", n.Addr, n.TotalUsers)
		}
		pi, ok := w.PrefixOf(n.Addr)
		if !ok || pi.Kind != KindCGN {
			t.Errorf("NAT %v not in CGN space", n.Addr)
		}
		if w.NATByIP[n.Addr] != n {
			t.Errorf("NATByIP inconsistent for %v", n.Addr)
		}
	}
}

func TestBTUserInvariants(t *testing.T) {
	w := Generate(TestParams(6))
	if len(w.BTUsers) == 0 {
		t.Fatal("no BT users")
	}
	natUsers := map[iputil.Addr]int{}
	for _, u := range w.BTUsers {
		if u.BehindNAT {
			natUsers[u.PublicAddr]++
			if _, ok := w.NATByIP[u.PublicAddr]; !ok {
				t.Errorf("NATed user %d at non-NAT address %v", u.ID, u.PublicAddr)
			}
		} else if u.PublicAddr != u.PrivateAddr {
			t.Errorf("public user %d has distinct private address", u.ID)
		}
	}
	for addr, count := range natUsers {
		if truth := w.NATByIP[addr]; truth.BTUsers != count {
			t.Errorf("NAT %v: %d instantiated BT users, truth says %d", addr, count, truth.BTUsers)
		}
	}
}

func TestCampaignInvariants(t *testing.T) {
	w := Generate(TestParams(7))
	n := len(w.Collection.Days())
	for _, c := range w.Campaigns {
		if c.StartDay < 0 || c.EndDay >= n || c.StartDay > c.EndDay {
			t.Fatalf("campaign span [%d, %d] outside [0, %d)", c.StartDay, c.EndDay, n)
		}
		if c.Actor == ActorDynamic {
			if c.LeaseDays < 1 {
				t.Fatal("dynamic campaign without lease")
			}
			for d := c.StartDay; d <= c.EndDay; d++ {
				if !c.Pool.Contains(c.AddrOnDay(d)) {
					t.Fatalf("dynamic campaign escaped its pool on day %d", d)
				}
			}
		} else if c.AddrOnDay(c.StartDay) != c.Addr {
			t.Fatal("fixed-address campaign moved")
		}
	}
}

func TestDynamicCampaignChangesAddresses(t *testing.T) {
	w := Generate(TestParams(8))
	for _, c := range w.Campaigns {
		if c.Actor != ActorDynamic || c.LeaseDays != 1 || c.EndDay-c.StartDay < 5 {
			continue
		}
		distinct := map[iputil.Addr]bool{}
		for d := c.StartDay; d <= c.EndDay; d++ {
			distinct[c.AddrOnDay(d)] = true
		}
		if len(distinct) < 2 {
			t.Errorf("daily-lease campaign used %d address(es) over %d days",
				len(distinct), c.EndDay-c.StartDay+1)
		}
		return // one good specimen is enough
	}
	t.Skip("no long daily-lease campaign in this tiny world")
}

func TestRIPEPipelineFindsWorldPools(t *testing.T) {
	p := TestParams(9)
	p.Scale = 0.3 // enough probes for the pipeline to bite
	w := Generate(p)
	res := ripeatlas.Detect(w.RIPELogs, ripeatlas.DetectOptions{})
	if res.TotalProbes == 0 {
		t.Fatal("no probes in logs")
	}
	// Every detected dynamic prefix must be a true dynamic pool.
	for _, pref := range res.DynamicPrefixes.Sorted() {
		if !w.TrueAnyDynamic.Contains(pref) {
			t.Errorf("pipeline flagged non-dynamic prefix %v", pref)
		}
	}
	// And it should find at least one fast pool.
	found := 0
	for _, pref := range res.DynamicPrefixes.Sorted() {
		if w.TrueFastDynamic.Contains(pref) {
			found++
		}
	}
	if found == 0 {
		t.Error("pipeline found no fast dynamic pools")
	}
}

// TestRIPELogsSorted: Generate hands out the RIPE log in SortLogs order,
// so the detector reads it without copying or sorting it again.
func TestRIPELogsSorted(t *testing.T) {
	w := Generate(TestParams(9))
	if len(w.RIPELogs) == 0 {
		t.Fatal("no RIPE log")
	}
	sorted := slices.Clone(w.RIPELogs)
	ripeatlas.SortLogs(sorted)
	if !slices.Equal(sorted, w.RIPELogs) {
		t.Error("World.RIPELogs is not in SortLogs order")
	}
}

func TestRespondsContract(t *testing.T) {
	w := Generate(TestParams(10))
	at := w.RIPEStart.AddDate(0, 1, 0)
	var cgn, server *PrefixInfo
	for _, a := range w.ASes {
		for i := range a.Prefixes {
			pi := &a.Prefixes[i]
			if pi.ICMPFiltered {
				if w.Responds(pi.Prefix.Nth(5), at) {
					t.Errorf("ICMP-filtered prefix %v responded", pi.Prefix)
				}
				continue
			}
			switch pi.Kind {
			case KindCGN:
				cgn = pi
			case KindServer:
				server = pi
			}
		}
	}
	if cgn != nil && !w.Responds(cgn.Prefix.Nth(1), at) {
		t.Error("CGN gateway (middlebox) should answer pings")
	}
	if server != nil && !w.Responds(server.Prefix.Nth(10), at) {
		t.Error("server space should answer pings")
	}
	// Outside the world: silence.
	if w.Responds(iputil.MustParseAddr("8.8.8.8"), at) {
		t.Error("address outside the world responded")
	}
}

func TestCollectionPopulated(t *testing.T) {
	w := Generate(TestParams(11))
	if w.Collection.AllAddrs().Len() == 0 {
		t.Fatal("no blocklisted addresses")
	}
	if w.Collection.DaysObserved() == 0 {
		t.Fatal("no observation days recorded")
	}
	// Every listing's address must be inside the world.
	for _, l := range w.Collection.Listings() {
		if _, ok := w.PrefixOf(l.Addr); !ok {
			t.Fatalf("listed address %v outside the world", l.Addr)
		}
		if l.Days < 1 || l.Days > len(w.Collection.Days()) {
			t.Fatalf("listing days = %d", l.Days)
		}
	}
}

// TestDefaultWorldShapes is the calibration regression: the default world
// must keep the paper's headline shapes (loose bounds).
func TestDefaultWorldShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("default world generation in -short mode")
	}
	w := Generate(DefaultParams(1))

	detectable := func(a iputil.Addr) bool {
		n, ok := w.NATByIP[a]
		return ok && n.BTUsers >= 2 && !n.Restricted
	}
	all := w.Collection.AllAddrs()
	natBL, dynBL := 0, 0
	for _, a := range all.Sorted() {
		if detectable(a) {
			natBL++
		}
		if w.TrueFastDynamic.Covers(a) {
			dynBL++
		}
	}
	if natBL < 100 {
		t.Errorf("NATed∩blocklisted = %d, want a usable population", natBL)
	}
	if dynBL < 500 {
		t.Errorf("dynamic∩blocklisted = %d", dynBL)
	}

	zeroNAT, zeroDyn := 0, 0
	for fi := range w.Registry.Feeds {
		hasNAT, hasDyn := false, false
		for _, a := range w.Collection.FeedAddrs(fi).Sorted() {
			if detectable(a) {
				hasNAT = true
			}
			if w.TrueFastDynamic.Covers(a) {
				hasDyn = true
			}
		}
		if !hasNAT {
			zeroNAT++
		}
		if !hasDyn {
			zeroDyn++
		}
	}
	nFeeds := float64(w.Registry.Len())
	if fr := float64(zeroNAT) / nFeeds; fr < 0.25 || fr > 0.60 {
		t.Errorf("feeds without NATed addresses = %.0f%%, paper ≈ 40%%", fr*100)
	}
	if fr := float64(zeroDyn) / nFeeds; fr < 0.30 || fr > 0.65 {
		t.Errorf("feeds without dynamic addresses = %.0f%%, paper ≈ 47%%", fr*100)
	}

	// Duration ordering (Fig 7): dynamic << all ≈ NAT, and NAT listings are
	// removed within two days more often than the average listing.
	mean := func(sel func(iputil.Addr) bool) (m float64, le2 float64) {
		n, sum, short := 0, 0, 0
		for _, l := range w.Collection.Listings() {
			if !sel(l.Addr) {
				continue
			}
			n++
			sum += l.Days
			if l.Days <= 2 {
				short++
			}
		}
		if n == 0 {
			return 0, 0
		}
		return float64(sum) / float64(n), float64(short) / float64(n)
	}
	allMean, allLe2 := mean(func(iputil.Addr) bool { return true })
	natMean, natLe2 := mean(detectable)
	dynMean, dynLe2 := mean(w.TrueFastDynamic.Covers)
	if !(dynMean < natMean && dynMean < allMean) {
		t.Errorf("duration ordering broken: all=%.1f nat=%.1f dyn=%.1f", allMean, natMean, dynMean)
	}
	if !(dynLe2 > natLe2 && natLe2 > allLe2) {
		t.Errorf("2-day removal ordering broken: all=%.2f nat=%.2f dyn=%.2f", allLe2, natLe2, dynLe2)
	}
	if allMean < 6 || allMean > 13 {
		t.Errorf("all-listing mean duration = %.1f days, paper ≈ 9", allMean)
	}
}
