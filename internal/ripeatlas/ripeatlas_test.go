package ripeatlas

import (
	"bytes"
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

var t0 = time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)

func entry(day int, probe int, ev Event, addr string, asn int) LogEntry {
	return LogEntry{
		UnixNano: t0.Add(time.Duration(day*24) * time.Hour).UnixNano(),
		ProbeID:  int32(probe),
		Event:    ev,
		Addr:     iputil.MustParseAddr(addr),
		ASN:      int32(asn),
	}
}

func TestLogRoundTrip(t *testing.T) {
	in := []LogEntry{
		entry(0, 1, EventConnect, "10.0.0.1", 64500),
		entry(1, 1, EventDisconnect, "10.0.0.1", 64500),
		entry(1, 2, EventConnect, "192.0.2.9", 64501),
	}
	var buf bytes.Buffer
	if err := WriteLogs(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadLogs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d entries, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("entry %d = %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestReadLogsErrors(t *testing.T) {
	bad := []string{
		"not-a-time,1,connect,10.0.0.1,1\n",
		"2019-01-01T00:00:00Z,x,connect,10.0.0.1,1\n",
		"2019-01-01T00:00:00Z,1,frobnicate,10.0.0.1,1\n",
		"2019-01-01T00:00:00Z,1,connect,999.0.0.1,1\n",
		"2019-01-01T00:00:00Z,1,connect,10.0.0.1,x\n",
		"2019-01-01T00:00:00Z,1,connect\n",
		"2019-01-01T00:00:00Z,2147483648,connect,10.0.0.1,1\n",
		"2019-01-01T00:00:00Z,1,connect,10.0.0.1,-2147483649\n",
	}
	for _, in := range bad {
		if _, err := ReadLogs(strings.NewReader(in)); err == nil {
			t.Errorf("ReadLogs(%q) succeeded, want error", in)
		}
	}
}

// TestReadLogsTimestampRange: a timestamp outside the int64-nanosecond
// range is a line-numbered error rather than a silently wrapped time, and
// the range's end points are accepted.
func TestReadLogsTimestampRange(t *testing.T) {
	ok := "2019-01-01T00:00:00Z,1,connect,10.0.0.1,1\n"
	for _, ts := range []string{"1677-09-21T00:12:43Z", "1600-01-01T00:00:00Z", "2262-04-11T23:47:17Z", "9999-12-31T23:59:59Z"} {
		in := ok + ts + ",1,connect,10.0.0.1,1\n"
		_, err := ReadLogs(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "line 2:") {
			t.Errorf("ReadLogs with %s: err = %v, want a line 2 range error", ts, err)
		}
	}
	for _, ts := range []string{"1677-09-21T00:12:44Z", "2262-04-11T23:47:16Z"} {
		out, err := ReadLogs(strings.NewReader(ts + ",1,connect,10.0.0.1,1\n"))
		if err != nil {
			t.Fatalf("ReadLogs with %s: %v", ts, err)
		}
		if got := out[0].Time().Format(time.RFC3339); got != ts {
			t.Errorf("ReadLogs with %s read back %s", ts, got)
		}
	}
}

func TestLogEntryIsPointerFree24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(LogEntry{}); got != 24 {
		t.Errorf("LogEntry is %d bytes, want 24", got)
	}
	typ := reflect.TypeOf(LogEntry{})
	for i := 0; i < typ.NumField(); i++ {
		switch k := typ.Field(i).Type.Kind(); k {
		case reflect.Int64, reflect.Int32, reflect.Uint32, reflect.Uint8:
		default:
			t.Errorf("LogEntry.%s is a %v, want a fixed-size integer", typ.Field(i).Name, k)
		}
	}
	if EventConnect.String() != "connect" || EventDisconnect.String() != "disconnect" {
		t.Errorf("event spellings = %q, %q", EventConnect, EventDisconnect)
	}
}

// sortLogsOracle is the reference order: a stable sort by time, then
// probe ID.
func sortLogsOracle(entries []LogEntry) {
	slices.SortStableFunc(entries, func(a, b LogEntry) int {
		if a.UnixNano != b.UnixNano {
			return cmp.Compare(a.UnixNano, b.UnixNano)
		}
		return cmp.Compare(a.ProbeID, b.ProbeID)
	})
}

// TestSortLogsMatchesStableOracle: SortLogs' key sort gives exactly the
// stable order, including for ties of one probe at one instant (which keep
// their input order) and of several probes at one instant.
func TestSortLogsMatchesStableOracle(t *testing.T) {
	logs := SimulateFleet(StandardFleet(3, 0.1))
	rng := rand.New(rand.NewSource(11))
	// Force ties: copy some entries' timestamps onto others, both within a
	// probe and across probes, and mark every entry by its ASN so equal
	// (time, probe) entries stay distinguishable.
	for i := range logs {
		logs[i].ASN = int32(i)
	}
	for k := 0; k < len(logs)/4; k++ {
		i, j := rng.Intn(len(logs)), rng.Intn(len(logs))
		logs[j].UnixNano = logs[i].UnixNano
		if k%2 == 0 {
			logs[j].ProbeID = logs[i].ProbeID
		}
	}
	for trial := 0; trial < 3; trial++ {
		rng.Shuffle(len(logs), func(i, j int) { logs[i], logs[j] = logs[j], logs[i] })
		if trial == 2 {
			slices.Reverse(logs)
		}
		want := slices.Clone(logs)
		sortLogsOracle(want)
		got := slices.Clone(logs)
		SortLogs(got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: entry %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestBuildHistoriesSortedInputUntouched: sorted input is read in place,
// unsorted input is sorted on a copy; both give the same histories and
// neither modifies the caller's slice.
func TestBuildHistoriesSortedInputUntouched(t *testing.T) {
	logs := SimulateFleet(StandardFleet(4, 0.05))
	shuffled := slices.Clone(logs)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	before := slices.Clone(shuffled)
	a, b := BuildHistories(logs), BuildHistories(shuffled)
	if !slices.Equal(shuffled, before) {
		t.Fatal("BuildHistories reordered its input")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sorted and shuffled input gave different histories")
	}
}

func TestBuildHistoriesCountsAllocations(t *testing.T) {
	logs := []LogEntry{
		entry(0, 1, EventConnect, "10.0.0.1", 1),
		entry(1, 1, EventDisconnect, "10.0.0.1", 1),
		entry(1, 1, EventConnect, "10.0.0.1", 1), // reconnect, same addr: no change
		entry(2, 1, EventConnect, "10.0.0.2", 1), // change 1
		entry(3, 1, EventConnect, "10.0.0.1", 1), // change 2 (back to a known addr)
	}
	h := BuildHistories(logs)[1]
	if h == nil {
		t.Fatal("no history")
	}
	if len(h.Allocations) != 2 {
		t.Errorf("Allocations = %v", h.Allocations)
	}
	if len(h.Changes) != 2 {
		t.Errorf("Changes = %v", h.Changes)
	}
	if h.MultiAS() {
		t.Error("single-AS probe flagged MultiAS")
	}
	mean, ok := h.MeanChangeInterval()
	if !ok || mean != 24*time.Hour {
		t.Errorf("mean interval = %v, %v", mean, ok)
	}
}

func TestBuildHistoriesMultiAS(t *testing.T) {
	logs := []LogEntry{
		entry(0, 7, EventConnect, "10.0.0.1", 1),
		entry(5, 7, EventConnect, "172.16.0.1", 2),
	}
	h := BuildHistories(logs)[7]
	if !h.MultiAS() {
		t.Error("probe with two ASNs not flagged")
	}
}

func TestDetectPipelineStages(t *testing.T) {
	var logs []LogEntry
	// Probe 1: static.
	logs = append(logs, entry(0, 1, EventConnect, "10.0.0.1", 100))
	// Probe 2: daily churner with 10 allocations in one /24 — dynamic.
	for d := 0; d < 10; d++ {
		logs = append(logs, entry(d, 2, EventConnect, "10.1.0."+itoa(d+1), 100))
	}
	// Probe 3: frequent but slow (10 allocations, 10-day gaps) — filtered
	// by the daily-change rule.
	for d := 0; d < 10; d++ {
		logs = append(logs, entry(d*10, 3, EventConnect, "10.2.0."+itoa(d+1), 100))
	}
	// Probe 4: multi-AS churner — excluded.
	for d := 0; d < 10; d++ {
		logs = append(logs, entry(d, 4, EventConnect, "10.3.0."+itoa(d+1), 100+d%2))
	}
	// Probe 5: three changes only — below the fixed threshold.
	for d := 0; d < 3; d++ {
		logs = append(logs, entry(d, 5, EventConnect, "10.4.0."+itoa(d+1), 100))
	}
	res := Detect(logs, DetectOptions{MinAllocations: 8})
	if res.TotalProbes != 5 {
		t.Fatalf("TotalProbes = %d", res.TotalProbes)
	}
	if res.MultiASProbes != 1 {
		t.Errorf("MultiASProbes = %d", res.MultiASProbes)
	}
	if res.NoChangeProbes != 1 {
		t.Errorf("NoChangeProbes = %d", res.NoChangeProbes)
	}
	if res.SameASProbes != 3 {
		t.Errorf("SameASProbes = %d", res.SameASProbes)
	}
	if res.FrequentProbes != 2 {
		t.Errorf("FrequentProbes = %d", res.FrequentProbes)
	}
	if res.DailyProbes != 1 || len(res.DynamicProbeIDs) != 1 || res.DynamicProbeIDs[0] != 2 {
		t.Errorf("DailyProbes = %d, ids = %v", res.DailyProbes, res.DynamicProbeIDs)
	}
	if !res.DynamicPrefixes.Contains(iputil.MustParsePrefix("10.1.0.0/24")) {
		t.Error("dynamic /24 missing")
	}
	if res.DynamicPrefixes.Len() != 1 {
		t.Errorf("DynamicPrefixes = %d, want 1", res.DynamicPrefixes.Len())
	}
	if res.DynamicAddresses.Len() != 10 {
		t.Errorf("DynamicAddresses = %d", res.DynamicAddresses.Len())
	}
}

func TestDetectExpandBitsAblation(t *testing.T) {
	var logs []LogEntry
	// Addresses spread across the /24 so that /28 expansion splits them.
	for d := 0; d < 10; d++ {
		logs = append(logs, entry(d, 2, EventConnect, "10.1.0."+itoa(d*20+1), 100))
	}
	res20 := Detect(logs, DetectOptions{MinAllocations: 8, ExpandBits: 20})
	if !res20.DynamicPrefixes.Contains(iputil.MustParsePrefix("10.1.0.0/20")) {
		t.Error("expected /20 expansion")
	}
	res28 := Detect(logs, DetectOptions{MinAllocations: 8, ExpandBits: 28})
	if res28.DynamicPrefixes.Len() < 2 {
		t.Errorf("/28 expansion should split the pool, got %d prefixes", res28.DynamicPrefixes.Len())
	}
}

func TestDetectKneeFallback(t *testing.T) {
	// Two probes, no churners: kneedle cannot find a knee; the pipeline
	// must fall back to the paper's threshold of 8 and find nothing.
	logs := []LogEntry{
		entry(0, 1, EventConnect, "10.0.0.1", 1),
		entry(0, 2, EventConnect, "10.0.1.1", 1),
		entry(1, 2, EventConnect, "10.0.1.2", 1),
	}
	res := Detect(logs, DetectOptions{})
	if res.KneeThreshold != 8 {
		t.Errorf("KneeThreshold = %d, want fallback 8", res.KneeThreshold)
	}
	if res.DailyProbes != 0 {
		t.Errorf("DailyProbes = %d", res.DailyProbes)
	}
}

func TestSimulateFleetDeterministic(t *testing.T) {
	p := StandardFleet(5, 0.05)
	a := SimulateFleet(p)
	b := SimulateFleet(p)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestStandardFleetShape(t *testing.T) {
	p := StandardFleet(42, 0.2)
	logs := SimulateFleet(p)
	res := Detect(logs, DetectOptions{})
	if res.TotalProbes != len(p.Probes) {
		t.Fatalf("probes = %d, want %d", res.TotalProbes, len(p.Probes))
	}
	// Paper shape: a majority never change, ~13% multi-AS, a small final
	// fraction (~4%) of daily churners.
	frNoChange := float64(res.NoChangeProbes) / float64(res.TotalProbes)
	if frNoChange < 0.40 || frNoChange > 0.75 {
		t.Errorf("no-change fraction = %.2f, want near 0.59", frNoChange)
	}
	frMulti := float64(res.MultiASProbes) / float64(res.TotalProbes)
	if frMulti < 0.05 || frMulti > 0.25 {
		t.Errorf("multi-AS fraction = %.2f, want near 0.13", frMulti)
	}
	frDaily := float64(res.DailyProbes) / float64(res.TotalProbes)
	if frDaily < 0.01 || frDaily > 0.25 {
		t.Errorf("daily fraction = %.2f, want small but nonzero", frDaily)
	}
	// The knee should be in the single-digit-to-tens range like Fig 2.
	if res.KneeThreshold < 2 || res.KneeThreshold > 60 {
		t.Errorf("knee = %d", res.KneeThreshold)
	}
	// Fast churners cover far more addresses per probe than the rest.
	if res.DynamicAddresses.Len() <= res.DailyProbes*5 {
		t.Errorf("dynamic probes cover too few addresses: %d addrs for %d probes",
			res.DynamicAddresses.Len(), res.DailyProbes)
	}
}

func TestFleetMoverExcluded(t *testing.T) {
	p := FleetParams{
		Seed:     1,
		Start:    t0,
		Duration: 100 * 24 * time.Hour,
		Probes: []ProbeSpec{{
			ID: 1, ASN: 100,
			Pool:      iputil.MustParsePrefix("10.0.0.0/24"),
			MeanLease: 12 * time.Hour,
			MoveAt:    50 * 24 * time.Hour,
			MovePool:  iputil.MustParsePrefix("172.16.0.0/24"),
			MoveASN:   200,
		}},
	}
	res := Detect(SimulateFleet(p), DetectOptions{MinAllocations: 4})
	if res.MultiASProbes != 1 || res.DailyProbes != 0 {
		t.Errorf("mover not excluded: %+v", res)
	}
}

func itoa(i int) string {
	s := ""
	if i == 0 {
		return "0"
	}
	for i > 0 {
		s = string(rune('0'+i%10)) + s
		i /= 10
	}
	return s
}
