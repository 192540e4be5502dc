// Tests for the segmented body layout and its compression: the per-/8 gzip
// members that only bodies above listSegMin lines (or prefixSegMin prefixes)
// get, the splicing ApplyDelta does over them, and the pooled writers both
// compile paths share and the yield between members.
package reuseapi

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

// syntheticDataset draws nAddrs NATed addresses and nPrefixes dynamic
// prefixes spread over every unicast /8, so both bodies take the per-top-byte
// layout once they are large enough.
func syntheticDataset(rng *rand.Rand, nAddrs, nPrefixes int) *Dataset {
	d := &Dataset{
		NATUsers:        make(map[iputil.Addr]int, nAddrs),
		DynamicPrefixes: iputil.NewPrefixSet(),
		Generated:       time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC),
	}
	for len(d.NATUsers) < nAddrs {
		d.NATUsers[randomUnicast(rng)] = 2 + rng.Intn(500)
	}
	for d.DynamicPrefixes.Len() < nPrefixes {
		d.DynamicPrefixes.Add(iputil.PrefixFrom(randomUnicast(rng), 16+rng.Intn(9)))
	}
	return d
}

// randomUnicast draws an address whose top byte is in 1..223.
func randomUnicast(rng *rand.Rand) iputil.Addr {
	return iputil.Addr(1+rng.Intn(223))<<24 | iputil.Addr(rng.Intn(1<<24))
}

// scatteredDelta edits share of the addresses and prefixes uniformly at
// random: half of them removed, the other half rewritten, and as many fresh
// members added anywhere — the churn that touches every segment.
func scatteredDelta(rng *rand.Rand, d *Dataset, share float64) *Delta {
	delta := &Delta{AddNAT: map[iputil.Addr]int{}, Generated: d.Generated.Add(time.Hour)}
	for _, a := range sortedAddrs(d) {
		switch r := rng.Float64(); {
		case r < share/2:
			delta.RemoveNAT = append(delta.RemoveNAT, a)
		case r < share:
			delta.AddNAT[a] = 2 + rng.Intn(500)
		}
	}
	for i := 0; i < int(share*float64(len(d.NATUsers))); i++ {
		delta.AddNAT[randomUnicast(rng)] = 2 + rng.Intn(500)
	}
	for _, p := range d.DynamicPrefixes.Sorted() {
		if rng.Float64() < share {
			delta.RemovePrefixes = append(delta.RemovePrefixes, p)
			delta.AddPrefixes = append(delta.AddPrefixes, iputil.PrefixFrom(randomUnicast(rng), 16+rng.Intn(9)))
		}
	}
	return delta
}

// clusteredDelta replaces the members of one /8 — one provider's pool
// turning over — and leaves every other top byte alone.
func clusteredDelta(rng *rand.Rand, d *Dataset, top byte) *Delta {
	delta := &Delta{AddNAT: map[iputil.Addr]int{}, Generated: d.Generated.Add(time.Hour)}
	for _, a := range sortedAddrs(d) {
		if byte(a>>24) == top {
			delta.RemoveNAT = append(delta.RemoveNAT, a)
		}
	}
	base := iputil.Addr(top) << 24
	for i := 0; i < 50; i++ {
		delta.AddNAT[base|iputil.Addr(rng.Intn(1<<24))] = 2 + rng.Intn(500)
	}
	for _, p := range d.DynamicPrefixes.Sorted() {
		if byte(p.Base()>>24) == top {
			delta.RemovePrefixes = append(delta.RemovePrefixes, p)
		}
	}
	delta.AddPrefixes = []iputil.Prefix{iputil.PrefixFrom(base|iputil.Addr(rng.Intn(1<<24)), 20)}
	return delta
}

// sortedAddrs lists d's NATed addresses in ascending order, so deltas drawn
// from one seed do not depend on map iteration order.
func sortedAddrs(d *Dataset) []iputil.Addr {
	out := make([]iputil.Addr, 0, len(d.NATUsers))
	for a := range d.NATUsers {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// requireSameBodies asserts byte equality of every full-body endpoint's
// body, gzip variant and ETag.
func requireSameBodies(t *testing.T, label string, got, want *Snapshot) {
	t.Helper()
	gotB, wantB := got.PrecomputedBodies(), want.PrecomputedBodies()
	for name, w := range wantB {
		g := gotB[name]
		if !bytes.Equal(g.Body, w.Body) {
			t.Fatalf("%s: %s body diverges (%d vs %d bytes)", label, name, len(g.Body), len(w.Body))
		}
		if !bytes.Equal(g.Gzip, w.Gzip) {
			t.Fatalf("%s: %s gzip variant diverges (%d vs %d bytes)", label, name, len(g.Gzip), len(w.Gzip))
		}
		if g.ETag != w.ETag {
			t.Fatalf("%s: %s ETag %s != %s", label, name, g.ETag, w.ETag)
		}
	}
}

// requireGunzipsToBody asserts the body has a multistream gzip variant and
// that it decodes to the identity body.
func requireGunzipsToBody(t *testing.T, label string, pb precomputedBody) {
	t.Helper()
	if pb.gz == nil {
		t.Fatalf("%s: no gzip variant", label)
	}
	r, err := gzip.NewReader(bytes.NewReader(pb.gz))
	if err != nil {
		t.Fatalf("%s: gzip header: %v", label, err)
	}
	plain, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("%s: gunzip: %v", label, err)
	}
	if !bytes.Equal(plain, pb.body) {
		t.Fatalf("%s: gunzipped %d bytes, body has %d", label, len(plain), len(pb.body))
	}
}

// sharedMembers counts the segments of got whose gzip member is the very
// slice a segment of old carries — the members ApplyDelta spliced rather
// than recompressed.
func sharedMembers(got, old precomputedBody) int {
	n := 0
	for _, g := range got.segs {
		for _, o := range old.segs {
			if len(g.gz) > 0 && len(o.gz) > 0 && &g.gz[0] == &o.gz[0] {
				n++
				break
			}
		}
	}
	return n
}

// untouched counts pb's top-byte segments other than top's.
func untouched(pb precomputedBody, top int) int {
	n := 0
	for _, seg := range pb.segs {
		if seg.key >= 0 && seg.key != top {
			n++
		}
	}
	return n
}

// TestSegmentedApplyDelta pins ApplyDelta ≡ Compile on bodies large enough
// for the per-/8 member layout — 20K addresses over ~220 top bytes and 600
// prefixes — for clustered, 1% scattered and chained deltas, and checks
// that a clustered delta recompresses only the segments it touches.
func TestSegmentedApplyDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := syntheticDataset(rng, 20_000, 600)
	snap := Compile(data)
	if n := len(snap.list.segs); n < 200 {
		t.Fatalf("list has %d segments; want the per-/8 layout", n)
	}
	if n := len(snap.prefixesB.segs); n < 100 {
		t.Fatalf("prefixes has %d segments; want the per-/8 layout", n)
	}
	requireGunzipsToBody(t, "base list", snap.list)

	const top = 77
	clustered := clusteredDelta(rng, data, top)
	got := snap.ApplyDelta(clustered)
	requireSameBodies(t, "clustered", got, Compile(clustered.ApplyTo(data)))
	// Only the header (restamped) and the top-77 segment changed.
	if shared, want := sharedMembers(got.list, snap.list), untouched(snap.list, top); shared != want {
		t.Errorf("clustered: list reused %d members, want %d", shared, want)
	}
	if shared, want := sharedMembers(got.prefixesB, snap.prefixesB), untouched(snap.prefixesB, top); shared != want {
		t.Errorf("clustered: prefixes reused %d members, want %d", shared, want)
	}

	scattered := scatteredDelta(rng, data, 0.01)
	got = snap.ApplyDelta(scattered)
	requireSameBodies(t, "scattered", got, Compile(scattered.ApplyTo(data)))
	requireGunzipsToBody(t, "scattered list", got.list)

	// Chained: each hop applies to the previous delta-compiled snapshot.
	for hop := 0; hop < 3; hop++ {
		var d *Delta
		if hop%2 == 0 {
			d = scatteredDelta(rng, data, 0.01)
		} else {
			d = clusteredDelta(rng, data, byte(1+rng.Intn(223)))
		}
		data = d.ApplyTo(data)
		snap = snap.ApplyDelta(d)
		requireSameBodies(t, fmt.Sprintf("chained hop %d", hop), snap, Compile(data))
	}
}

// TestSegmentedLayoutBoundary pins ApplyDelta ≡ Compile across the line
// counts where a body switches between one whole member and per-/8
// members: 4096 ↔ 4095 addresses and 512 ↔ 511 prefixes, both directions.
func TestSegmentedLayoutBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	at := syntheticDataset(rng, listSegMin, prefixSegMin)
	addrs := sortedAddrs(at)
	prefixes := at.DynamicPrefixes.Sorted()
	shrink := &Delta{
		RemoveNAT:      []iputil.Addr{addrs[len(addrs)/2]},
		RemovePrefixes: []iputil.Prefix{prefixes[len(prefixes)/2]},
		Generated:      at.Generated.Add(time.Hour),
	}
	below := shrink.ApplyTo(at)
	grow := DiffDatasets(below, at)

	atSnap, belowSnap := Compile(at), Compile(below)
	if len(atSnap.list.segs) <= 2 || len(atSnap.prefixesB.segs) <= 2 {
		t.Fatalf("at the minimum: %d list / %d prefix segments, want the per-/8 layout",
			len(atSnap.list.segs), len(atSnap.prefixesB.segs))
	}
	if len(belowSnap.list.segs) != 2 || len(belowSnap.prefixesB.segs) != 2 {
		t.Fatalf("below the minimum: %d list / %d prefix segments, want header + whole",
			len(belowSnap.list.segs), len(belowSnap.prefixesB.segs))
	}
	requireSameBodies(t, "4096→4095, 512→511", atSnap.ApplyDelta(shrink), belowSnap)
	requireSameBodies(t, "4095→4096, 511→512", belowSnap.ApplyDelta(grow), Compile(grow.ApplyTo(below)))
	requireGunzipsToBody(t, "whole-member list", belowSnap.list)
}

// freshMember compresses b with a newly allocated writer at level — at
// gzipLevel, the reference a pooled writer must reproduce.
func freshMember(t *testing.T, b []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGzipMemberPooledMatchesFresh pins that a recycled writer carries no
// state between members: after the pool has compressed other, larger and
// differently shaped inputs, every member is byte-identical to one from a
// fresh writer.
func TestGzipMemberPooledMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := make([]byte, 200_000)
	rng.Read(random)
	lines := renderAddrRun(sortedAddrs(syntheticDataset(rng, 5000, 0)))
	inputs := [][]byte{
		nil,
		[]byte("# header\n"),
		lines,
		random,
		bytes.Repeat([]byte("10.0.0.1\n"), 30_000),
		lines[:len(lines)/3],
	}
	// Dirty the pool's writers with every input first, then compare each
	// input's pooled member to a fresh one, twice over.
	for _, in := range inputs {
		gzipMember(in)
	}
	for round := 0; round < 2; round++ {
		for i, in := range inputs {
			if got, want := gzipMember(in), freshMember(t, in, gzipLevel); !bytes.Equal(got, want) {
				t.Fatalf("round %d input %d (%d bytes): pooled member differs from a fresh writer's", round, i, len(in))
			}
		}
	}
	// A writer abandoned mid-stream must not leak into the next member.
	w := gzipWriters.Get().(*gzip.Writer)
	w.Reset(io.Discard)
	_, _ = w.Write(random)
	gzipWriters.Put(w)
	if !bytes.Equal(gzipMember(lines), freshMember(t, lines, gzipLevel)) {
		t.Fatal("member after an abandoned stream differs from a fresh writer's")
	}
}

// TestCompileYieldsBetweenMembers pins that a compile hands its P over
// between gzip members: on one P, a goroutine that does nothing but yield
// gets a turn per member, not one per 10 ms preemption tick.
func TestCompileYieldsBetweenMembers(t *testing.T) {
	data := syntheticDataset(rand.New(rand.NewSource(9)), 20_000, 0)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var turns atomic.Int64
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		for {
			select {
			case <-done:
				return
			default:
			}
			turns.Add(1)
			runtime.Gosched()
		}
	}()
	snap := Compile(data)
	close(done)
	<-exited
	members := len(snap.list.segs)
	if got := turns.Load(); got < int64(members/2) {
		t.Fatalf("a yielding goroutine got %d turns while %d list members were compressed", got, members)
	}
}

// TestConcurrentCompiles runs several compiles and delta compiles of
// different datasets at once, as a multi-dataset registry's reloaders do,
// and checks each against its sequential result; under -race it also
// checks the shared writer pool.
func TestConcurrentCompiles(t *testing.T) {
	const n = 4
	type job struct {
		data       *Dataset
		delta      *Delta
		full, next *Snapshot
	}
	jobs := make([]job, n)
	for i := range jobs {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		data := syntheticDataset(rng, 6000+1000*i, 520+10*i)
		delta := scatteredDelta(rng, data, 0.02)
		full := Compile(data)
		jobs[i] = job{data: data, delta: delta, full: full, next: full.ApplyDelta(delta)}
	}
	var wg sync.WaitGroup
	results := make([][2]*Snapshot, n)
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			full := Compile(jobs[i].data)
			results[i] = [2]*Snapshot{full, full.ApplyDelta(jobs[i].delta)}
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		requireSameBodies(t, fmt.Sprintf("dataset %d Compile", i), r[0], jobs[i].full)
		requireSameBodies(t, fmt.Sprintf("dataset %d ApplyDelta", i), r[1], jobs[i].next)
	}
}

// clusteredDataset draws nAddrs NATed addresses inside n16 random /16s —
// the shape of a few providers' pools, where lines share long prefixes.
func clusteredDataset(rng *rand.Rand, nAddrs, n16 int) *Dataset {
	d := &Dataset{
		NATUsers:        make(map[iputil.Addr]int, nAddrs),
		DynamicPrefixes: iputil.NewPrefixSet(),
		Generated:       time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC),
	}
	blocks := make([]iputil.Addr, n16)
	for i := range blocks {
		blocks[i] = randomUnicast(rng) &^ 0xffff
	}
	for len(d.NATUsers) < nAddrs {
		d.NATUsers[blocks[rng.Intn(n16)]|iputil.Addr(rng.Intn(1<<16))] = 2 + rng.Intn(500)
	}
	return d
}

// TestListGzipSizeBound is the size ratchet on gzipLevel: on a scattered
// and a clustered list, the served gzip variant may be at most 0.2% larger
// than the same segments compressed at level 6, the level the served bytes
// were tuned against.
func TestListGzipSizeBound(t *testing.T) {
	for name, data := range map[string]*Dataset{
		"scattered": syntheticDataset(rand.New(rand.NewSource(13)), 100_000, 0),
		"clustered": clusteredDataset(rand.New(rand.NewSource(17)), 100_000, 200),
	} {
		list := Compile(data).list
		level6 := 0
		for _, seg := range list.segs {
			level6 += len(freshMember(t, seg.body, 6))
		}
		got := len(list.gz)
		t.Logf("%s: %d list bytes at level %d, %d at level 6 (%+.3f%%)",
			name, got, gzipLevel, level6, 100*(float64(got)/float64(level6)-1))
		if float64(got) > 1.002*float64(level6) {
			t.Errorf("%s: gzip list is %d bytes, over 1.002× the level-6 build's %d", name, got, level6)
		}
	}
}
