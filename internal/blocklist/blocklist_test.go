package blocklist

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

func TestStandardRegistry(t *testing.T) {
	r := StandardRegistry()
	// The printed Table 2 rows sum to 149 feeds across 41 maintainers.
	if r.Len() != 149 {
		t.Errorf("Len = %d, want 149 (printed Table 2 rows)", r.Len())
	}
	counts := r.MaintainerCounts()
	if len(counts) != 41 {
		t.Errorf("maintainers = %d, want 41", len(counts))
	}
	if counts[0].Maintainer != "Bad IPs" || counts[0].Count != 44 {
		t.Errorf("top row = %+v, want Bad IPs 44", counts[0])
	}
	if counts[1].Maintainer != "Bambenek" || counts[1].Count != 22 {
		t.Errorf("second row = %+v", counts[1])
	}
	// Surveyed flags: the paper marks 7 maintainers with (*) among those
	// we encode (Abuse.ch, Blocklist.de, Project Honeypot, Cleantalk,
	// Nixspam, Cisco Talos, Stopforumspam).
	surveyed := 0
	for _, c := range counts {
		if c.Surveyed {
			surveyed++
		}
	}
	if surveyed != 7 {
		t.Errorf("surveyed maintainers = %d, want 7", surveyed)
	}
	// Names are unique and non-empty slugs.
	for _, f := range r.Feeds {
		if f.Name == "" || strings.ContainsAny(f.Name, " !.") {
			t.Errorf("bad feed name %q", f.Name)
		}
	}
	if _, ok := r.Index("nixspam"); !ok {
		t.Error("nixspam feed missing")
	}
	if _, ok := r.Index("bad-ips-44"); !ok {
		t.Error("bad-ips-44 feed missing")
	}
}

func TestNewRegistryRejectsDuplicates(t *testing.T) {
	_, err := NewRegistry([]Feed{{Name: "a"}, {Name: "a"}})
	if err == nil {
		t.Error("duplicate names accepted")
	}
}

func TestMeasurementDays(t *testing.T) {
	days := MeasurementDays()
	if len(days) != 83 {
		t.Fatalf("days = %d, want 83", len(days))
	}
	if !days[0].Equal(time.Date(2019, 8, 3, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("first day = %v", days[0])
	}
	if !days[38].Equal(time.Date(2019, 9, 10, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("window 1 end = %v", days[38])
	}
	if !days[39].Equal(time.Date(2020, 3, 29, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("window 2 start = %v", days[39])
	}
	if !days[82].Equal(time.Date(2020, 5, 11, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("last day = %v", days[82])
	}
}

func testCollection(t *testing.T) (*Collection, *Registry) {
	t.Helper()
	reg, err := NewRegistry([]Feed{
		{Name: "spamfeed", Type: Spam},
		{Name: "ddosfeed", Type: DDoS},
	})
	if err != nil {
		t.Fatal(err)
	}
	days := make([]time.Time, 10)
	for i := range days {
		days[i] = time.Date(2019, 8, 3+i, 0, 0, 0, 0, time.UTC)
	}
	return NewCollection(reg, days), reg
}

func TestCollectionListings(t *testing.T) {
	c, _ := testCollection(t)
	a := iputil.MustParseAddr("192.0.2.1")
	b := iputil.MustParseAddr("192.0.2.2")
	// a listed on feed 0 days 0-2, then relisted day 5.
	for _, d := range []int{0, 1, 2, 5} {
		if err := c.Record(d, 0, iputil.SetOf(a)); err != nil {
			t.Fatal(err)
		}
	}
	// b on feed 1 day 3 only.
	if err := c.Record(3, 1, iputil.SetOf(b)); err != nil {
		t.Fatal(err)
	}
	ls := c.Listings()
	if len(ls) != 2 {
		t.Fatalf("listings = %+v", ls)
	}
	la := ls[0]
	if la.Addr != a || la.Days != 4 {
		t.Errorf("listing a = %+v, want 4 days", la)
	}
	if !la.First.Equal(c.Days()[0]) || !la.Last.Equal(c.Days()[5]) {
		t.Errorf("listing a span = %v..%v", la.First, la.Last)
	}
	if ls[1].Addr != b || ls[1].Days != 1 {
		t.Errorf("listing b = %+v", ls[1])
	}
}

func TestCollectionIdempotentSameDay(t *testing.T) {
	c, _ := testCollection(t)
	a := iputil.MustParseAddr("192.0.2.1")
	// The same snapshot recorded twice (retries) must not double-count.
	for i := 0; i < 2; i++ {
		if err := c.Record(0, 0, iputil.SetOf(a)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Listings()[0].Days; got != 1 {
		t.Errorf("Days = %d, want 1", got)
	}
}

// TestAllAddrsConcurrentCallsShareOneSet: parallel joins ask for the union
// at once; under -race they must get one set, built once.
func TestAllAddrsConcurrentCallsShareOneSet(t *testing.T) {
	c, _ := testCollection(t)
	c.Record(0, 0, iputil.SetOf(iputil.MustParseAddr("192.0.2.1"), iputil.MustParseAddr("192.0.2.2")))
	c.Record(0, 1, iputil.SetOf(iputil.MustParseAddr("198.51.100.7")))
	const callers = 8
	got := make([]*iputil.Set, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.AllAddrs()
			got[i].Contains(iputil.MustParseAddr("192.0.2.1"))
		}()
	}
	wg.Wait()
	for i, s := range got {
		if s != got[0] || s.Len() != 3 {
			t.Errorf("caller %d got %p with %d addresses, caller 0 %p", i, s, s.Len(), got[0])
		}
	}
}

// TestAllAddrsSeesLaterRecords: a snapshot or span recorded after a call
// shows up in the next call, and the set handed out earlier is unchanged.
func TestAllAddrsSeesLaterRecords(t *testing.T) {
	c, _ := testCollection(t)
	a := iputil.MustParseAddr("192.0.2.1")
	b := iputil.MustParseAddr("192.0.2.2")
	d := iputil.MustParseAddr("192.0.2.3")
	c.Record(0, 0, iputil.SetOf(a))
	first := c.AllAddrs()
	if err := c.Record(1, 1, iputil.SetOf(b)); err != nil {
		t.Fatal(err)
	}
	second := c.AllAddrs()
	if !second.Contains(b) || second.Len() != 2 {
		t.Errorf("after Record: %v, want a and b", second.Sorted())
	}
	if err := c.RecordSpan(0, d, 0, 1); err != nil {
		t.Fatal(err)
	}
	if third := c.AllAddrs(); !third.Contains(d) || third.Len() != 3 {
		t.Errorf("after RecordSpan: %v, want a, b and d", third.Sorted())
	}
	if first.Len() != 1 || second.Len() != 2 {
		t.Errorf("earlier sets changed: %v, %v", first.Sorted(), second.Sorted())
	}
}

func TestCollectionAggregates(t *testing.T) {
	c, _ := testCollection(t)
	a := iputil.MustParseAddr("192.0.2.1")
	b := iputil.MustParseAddr("192.0.2.2")
	c.Record(0, 0, iputil.SetOf(a, b))
	c.Record(0, 1, iputil.SetOf(a))
	if got := c.AllAddrs().Len(); got != 2 {
		t.Errorf("AllAddrs = %d", got)
	}
	sizes := c.FeedSizes()
	if sizes[0] != 2 || sizes[1] != 1 {
		t.Errorf("FeedSizes = %v", sizes)
	}
	if got := c.MeanFeedSize(); got != 1.5 {
		t.Errorf("MeanFeedSize = %v", got)
	}
	if got := c.FeedAddrs(1); !got.Contains(a) || got.Len() != 1 {
		t.Errorf("FeedAddrs(1) = %v", got.Sorted())
	}
	if c.DaysObserved() != 1 {
		t.Errorf("DaysObserved = %d", c.DaysObserved())
	}
}

func TestCollectionRecordErrors(t *testing.T) {
	c, _ := testCollection(t)
	s := iputil.NewSet()
	if err := c.Record(-1, 0, s); err == nil {
		t.Error("negative day accepted")
	}
	if err := c.Record(0, 99, s); err == nil {
		t.Error("bad feed accepted")
	}
}

func TestParsePlain(t *testing.T) {
	in := `# comment
192.0.2.1
192.0.2.2 ; trailing comment
10.0.0.1 some metadata here

not-an-ip
192.0.2.1
`
	res, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if res.Addrs.Len() != 3 {
		t.Errorf("Addrs = %v", res.Addrs.Sorted())
	}
	if res.Skipped != 1 {
		t.Errorf("Skipped = %d", res.Skipped)
	}
}

func TestWritePlainRoundTrip(t *testing.T) {
	addrs := iputil.SetOf(
		iputil.MustParseAddr("10.0.0.2"),
		iputil.MustParseAddr("10.0.0.1"),
	)
	var sb strings.Builder
	if err := WritePlain(&sb, addrs, "reused addresses"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "# reused addresses\n") {
		t.Errorf("missing header: %q", out)
	}
	back, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if back.Addrs.Len() != 2 {
		t.Errorf("round trip = %v", back.Addrs.Sorted())
	}
}

func TestWindows(t *testing.T) {
	reg, _ := NewRegistry([]Feed{{Name: "f"}})
	c := NewCollection(reg, MeasurementDays())
	ws := c.Windows()
	if len(ws) != 2 {
		t.Fatalf("windows = %v", ws)
	}
	if ws[0] != [2]int{0, 38} || ws[1] != [2]int{39, 82} {
		t.Errorf("windows = %v, want [0 38] and [39 82]", ws)
	}
}

// TestListingDays: one walk gives each listing's day count over all
// observation days and within each window, zero where it was absent.
func TestListingDays(t *testing.T) {
	reg, _ := NewRegistry([]Feed{{Name: "f"}, {Name: "g"}})
	c := NewCollection(reg, MeasurementDays())
	a := iputil.MustParseAddr("192.0.2.1")
	b := iputil.MustParseAddr("192.0.2.2")
	// a straddles the window edge: the end of window 1 and the start of
	// window 2 (days 35..45). b sits in window 1 only on the first feed,
	// and across the bitmap's word boundary (day 64) on the second.
	for _, span := range []struct {
		feed     int
		addr     iputil.Addr
		from, to int
	}{{0, a, 35, 45}, {0, b, 0, 3}, {1, b, 60, 70}} {
		if err := c.RecordSpan(span.feed, span.addr, span.from, span.to); err != nil {
			t.Fatal(err)
		}
	}
	want := []map[iputil.Addr][3]int{
		{a: {11, 4, 7}, b: {4, 4, 0}},
		{b: {11, 0, 11}},
	}
	for feed, w := range want {
		got := map[iputil.Addr][3]int{}
		c.ListingDays(feed, func(addr iputil.Addr, days int, perWindow []int) {
			if len(perWindow) != 2 {
				t.Fatalf("perWindow = %v, want one count per window", perWindow)
			}
			got[addr] = [3]int{days, perWindow[0], perWindow[1]}
		})
		if !reflect.DeepEqual(got, w) {
			t.Errorf("feed %d: days (all, window 1, window 2) = %v, want %v", feed, got, w)
		}
	}
	for _, l := range c.Listings() {
		if n := want[l.FeedIndex][l.Addr][0]; l.Days != n {
			t.Errorf("Listings: %v on feed %d has %d days, ListingDays %d", l.Addr, l.FeedIndex, l.Days, n)
		}
	}
}

func TestParseNATedList(t *testing.T) {
	in := `# crawl output
100.64.0.1
100.64.0.2	5
100.64.0.3	users>=78	ports=90
100.64.0.4	banana
`
	m, err := ParseNATedList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"100.64.0.1": 2, "100.64.0.2": 5, "100.64.0.3": 78, "100.64.0.4": 2}
	if len(m) != len(want) {
		t.Fatalf("entries = %d", len(m))
	}
	for a, u := range want {
		if m[iputil.MustParseAddr(a)] != u {
			t.Errorf("%s = %d, want %d", a, m[iputil.MustParseAddr(a)], u)
		}
	}
	if _, err := ParseNATedList(strings.NewReader("not-an-ip\n")); err == nil {
		t.Error("bad address accepted")
	}
}

// TestWriteNATedListRoundTrip pins the writer the crawler CLI and the e2e
// shard merge rely on: deterministic (sorted) output, the documented floor
// of 2 users, and lossless reparse through ParseNATedList.
func TestWriteNATedListRoundTrip(t *testing.T) {
	users := map[iputil.Addr]int{
		iputil.MustParseAddr("100.64.0.9"): 7,
		iputil.MustParseAddr("100.64.0.1"): 0, // floors to 2 on write
		iputil.MustParseAddr("10.1.2.3"):   2,
	}
	var buf strings.Builder
	if err := WriteNATedList(&buf, users, "unit test"); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.HasPrefix(text, "# unit test\n") {
		t.Errorf("header missing:\n%s", text)
	}
	if i, j := strings.Index(text, "10.1.2.3"), strings.Index(text, "100.64.0.1"); i < 0 || j < 0 || i > j {
		t.Errorf("output not sorted by address:\n%s", text)
	}

	back, err := ParseNATedList(strings.NewReader(text))
	if err != nil {
		t.Fatalf("written list does not reparse: %v\n%s", err, text)
	}
	want := map[string]int{"100.64.0.9": 7, "100.64.0.1": 2, "10.1.2.3": 2}
	if len(back) != len(want) {
		t.Fatalf("round-trip entries = %d, want %d", len(back), len(want))
	}
	for a, u := range want {
		if back[iputil.MustParseAddr(a)] != u {
			t.Errorf("%s round-tripped to %d, want %d", a, back[iputil.MustParseAddr(a)], u)
		}
	}

	var again strings.Builder
	if err := WriteNATedList(&again, users, "unit test"); err != nil {
		t.Fatal(err)
	}
	if again.String() != text {
		t.Error("WriteNATedList is not deterministic for the same map")
	}
}

func TestParsePrefixList(t *testing.T) {
	in := "# prefixes\n10.0.0.0/24\n192.0.2.0/24\n"
	ps, err := ParsePrefixList(strings.NewReader(in))
	if err != nil || ps.Len() != 2 {
		t.Fatalf("ps = %v, %v", ps, err)
	}
	if _, err := ParsePrefixList(strings.NewReader("10.0.0.0/99\n")); err == nil {
		t.Error("bad prefix accepted")
	}
}
