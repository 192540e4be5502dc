// Property tests pinning the incremental compile: for any base dataset and
// any delta, ApplyDelta on the compiled base must produce byte-for-byte what
// a full Compile of the delta-edited dataset produces — bodies, gzip
// variants, and ETags. External package: testkit imports reuseapi, so these
// drive the exported surface only.
package reuseapi_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/reuseapi"
	"github.com/reuseblock/reuseblock/internal/testkit"
)

// worldDataset derives a serving dataset from a generated world's ground
// truth: multi-user NAT gateways and the dynamic pools — the same shape the
// real pipeline publishes.
func worldDataset(t *testing.T, spec testkit.WorldSpec) *reuseapi.Dataset {
	t.Helper()
	w := blgen.Generate(spec.Params())
	d := &reuseapi.Dataset{
		NATUsers:        map[iputil.Addr]int{},
		DynamicPrefixes: iputil.NewPrefixSet(),
		Generated:       time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC),
	}
	for a, nat := range w.NATByIP {
		if nat.BTUsers >= 2 {
			d.NATUsers[a] = nat.BTUsers
		}
	}
	for _, p := range w.TrueAnyDynamic.Sorted() {
		d.DynamicPrefixes.Add(p)
	}
	if len(d.NATUsers) == 0 || d.DynamicPrefixes.Len() == 0 {
		t.Fatalf("degenerate world for spec %v: %d NATed, %d prefixes",
			spec, len(d.NATUsers), d.DynamicPrefixes.Len())
	}
	return d
}

// requireSnapshotsEqual asserts the two snapshots serve identical artifacts
// on every full-body endpoint, and identical verdicts on a sample.
func requireSnapshotsEqual(t *testing.T, label string, got, want *reuseapi.Snapshot) {
	t.Helper()
	if !got.Generated().Equal(want.Generated()) {
		t.Errorf("%s: generated %v != %v", label, got.Generated(), want.Generated())
	}
	if got.NATedAddresses() != want.NATedAddresses() || got.DynamicPrefixes() != want.DynamicPrefixes() {
		t.Errorf("%s: sizes %d/%d != %d/%d", label,
			got.NATedAddresses(), got.DynamicPrefixes(),
			want.NATedAddresses(), want.DynamicPrefixes())
	}
	gotB, wantB := got.PrecomputedBodies(), want.PrecomputedBodies()
	for name, w := range wantB {
		g := gotB[name]
		if !bytes.Equal(g.Body, w.Body) {
			t.Errorf("%s: %s body diverges (delta %d bytes, full %d bytes)",
				label, name, len(g.Body), len(w.Body))
			continue
		}
		if !bytes.Equal(g.Gzip, w.Gzip) {
			t.Errorf("%s: %s gzip variant diverges", label, name)
		}
		if g.ETag != w.ETag {
			t.Errorf("%s: %s ETag %q != %q", label, name, g.ETag, w.ETag)
		}
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		a := iputil.Addr(rng.Uint32())
		if gv, wv := got.Verdict(a), want.Verdict(a); gv != wv {
			t.Fatalf("%s: verdict(%v) %+v != %+v", label, a, gv, wv)
		}
	}
}

// adversarialDeltas builds the edge-case deltas for a dataset: empty,
// restamp-only, remove-everything, overlap (add wins over remove), and
// prefix split/merge.
func adversarialDeltas(d *reuseapi.Dataset) map[string]*reuseapi.Delta {
	nated := make([]iputil.Addr, 0, len(d.NATUsers))
	for a := range d.NATUsers {
		nated = append(nated, a)
	}
	prefixes := d.DynamicPrefixes.Sorted()
	later := d.Generated.Add(24 * time.Hour)

	out := map[string]*reuseapi.Delta{
		"empty":        {},
		"restamp-only": {Generated: later},
		"remove-all": {
			RemoveNAT:      nated,
			RemovePrefixes: prefixes,
			Generated:      later,
		},
		"add-wins-over-remove": {
			AddNAT:      map[iputil.Addr]int{nated[0]: 999},
			RemoveNAT:   []iputil.Addr{nated[0]},
			AddPrefixes: []iputil.Prefix{prefixes[0]},
			RemovePrefixes: []iputil.Prefix{
				prefixes[0],
			},
			Generated: later,
		},
		"remove-absent": {
			RemoveNAT:      []iputil.Addr{iputil.Addr(1)},
			RemovePrefixes: []iputil.Prefix{iputil.PrefixFrom(iputil.Addr(0), 8)},
			Generated:      later,
		},
	}
	// Split: replace a prefix with its two halves.
	for _, p := range prefixes {
		if p.Bits() < 32 {
			half := iputil.PrefixFrom(p.Base(), p.Bits()+1)
			other := iputil.PrefixFrom(p.Base()+iputil.Addr(half.Size()), p.Bits()+1)
			out["prefix-split"] = &reuseapi.Delta{
				RemovePrefixes: []iputil.Prefix{p},
				AddPrefixes:    []iputil.Prefix{half, other},
				Generated:      later,
			}
			// Merge: the inverse edit against the split dataset is covered by
			// applying remove-halves/add-parent to the base (the halves may
			// be absent — remove tolerates that).
			out["prefix-merge"] = &reuseapi.Delta{
				RemovePrefixes: []iputil.Prefix{half, other},
				AddPrefixes:    []iputil.Prefix{p},
				Generated:      later,
			}
			break
		}
	}
	return out
}

// randomDelta draws a clustered random delta: edits concentrated in a few
// top-byte regions (the realistic shape — one provider's pool churns), with
// value rewrites, removals, and fresh inserts.
func randomDelta(rng *rand.Rand, d *reuseapi.Dataset, frac float64) *reuseapi.Delta {
	delta := &reuseapi.Delta{
		AddNAT:    map[iputil.Addr]int{},
		Generated: d.Generated.Add(time.Duration(1+rng.Intn(48)) * time.Hour),
	}
	for a := range d.NATUsers {
		switch {
		case rng.Float64() < frac/2:
			delta.RemoveNAT = append(delta.RemoveNAT, a)
		case rng.Float64() < frac/2:
			delta.AddNAT[a] = 2 + rng.Intn(500)
		}
	}
	cluster := iputil.Addr(rng.Uint32()) &^ 0xffffff // one random /8
	for i := 0; i < 1+rng.Intn(20); i++ {
		delta.AddNAT[cluster|iputil.Addr(rng.Intn(1<<24))] = 2 + rng.Intn(500)
	}
	for _, p := range d.DynamicPrefixes.Sorted() {
		if rng.Float64() < frac/4 {
			delta.RemovePrefixes = append(delta.RemovePrefixes, p)
		}
	}
	for i := 0; i < rng.Intn(4); i++ {
		delta.AddPrefixes = append(delta.AddPrefixes,
			iputil.PrefixFrom(cluster|iputil.Addr(rng.Intn(1<<24)), 12+rng.Intn(13)))
	}
	return delta
}

// TestApplyDeltaEquivalence is the pinned property: over generated worlds
// and both adversarial and random deltas, ApplyDelta(Compile(d0), δ) must be
// byte-identical to Compile(d0 + δ).
func TestApplyDeltaEquivalence(t *testing.T) {
	for _, genSeed := range []int64{1, 7} {
		spec := testkit.GenWorldSpec(genSeed)
		base := worldDataset(t, spec)
		snap := reuseapi.Compile(base)

		for name, delta := range adversarialDeltas(base) {
			want := reuseapi.Compile(delta.ApplyTo(base))
			got := snap.ApplyDelta(delta)
			requireSnapshotsEqual(t, fmt.Sprintf("world %d/%s", genSeed, name), got, want)
		}

		rng := rand.New(rand.NewSource(genSeed * 31))
		for i := 0; i < 8; i++ {
			delta := randomDelta(rng, base, 0.05+rng.Float64()*0.3)
			want := reuseapi.Compile(delta.ApplyTo(base))
			got := snap.ApplyDelta(delta)
			requireSnapshotsEqual(t, fmt.Sprintf("world %d/random-%d", genSeed, i), got, want)
		}
	}
}

// TestApplyDeltaChained applies a run of random deltas sequentially — each
// on the previous delta-compiled snapshot — so equivalence is pinned for the
// accumulated state a long-lived watch reloader reaches, not just one hop.
func TestApplyDeltaChained(t *testing.T) {
	spec := testkit.GenWorldSpec(3)
	data := worldDataset(t, spec)
	snap := reuseapi.Compile(data)
	rng := rand.New(rand.NewSource(17))
	for hop := 0; hop < 6; hop++ {
		delta := randomDelta(rng, data, 0.1)
		data = delta.ApplyTo(data)
		snap = snap.ApplyDelta(delta)
		requireSnapshotsEqual(t, fmt.Sprintf("hop %d", hop), snap, reuseapi.Compile(data))
	}
}

// TestDiffDatasetsRoundTrip pins the reloader's actual path: parse two file
// generations, diff them, apply — the result must equal a cold compile of
// the new generation, and the diff must be minimal for identical datasets.
func TestDiffDatasetsRoundTrip(t *testing.T) {
	spec := testkit.GenWorldSpec(5)
	old := worldDataset(t, spec)
	rng := rand.New(rand.NewSource(23))
	newData := randomDelta(rng, old, 0.2).ApplyTo(old)

	delta := reuseapi.DiffDatasets(old, newData)
	got := reuseapi.Compile(old).ApplyDelta(delta)
	requireSnapshotsEqual(t, "diff-round-trip", got, reuseapi.Compile(newData))

	if d := reuseapi.DiffDatasets(old, old); !d.Empty() {
		t.Errorf("DiffDatasets(d, d) carries %d ops, want empty", d.Ops())
	}
}

// TestETagChangesIffBytesChange pins cache correctness over the delta path:
// a delta that leaves an endpoint's body untouched must leave its ETag
// untouched, and a changed body must change the ETag.
func TestETagChangesIffBytesChange(t *testing.T) {
	spec := testkit.GenWorldSpec(9)
	base := worldDataset(t, spec)
	snap := reuseapi.Compile(base)
	before := snap.PrecomputedBodies()

	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 10; i++ {
		delta := randomDelta(rng, base, 0.15)
		after := snap.ApplyDelta(delta).PrecomputedBodies()
		for name, b := range before {
			a := after[name]
			if bytes.Equal(a.Body, b.Body) != (a.ETag == b.ETag) {
				t.Errorf("delta %d: %s ETag moved=%v but bytes moved=%v",
					i, name, a.ETag != b.ETag, !bytes.Equal(a.Body, b.Body))
			}
		}
	}
}

// TestDiffDatasetsMatchesMapOracle pins DiffDatasets' sort-merge against
// the map-probing diff it replaced: equal AddNAT maps and prefix edits, and
// a strictly ascending RemoveNAT holding the oracle's addresses. Pairs come
// from testkit worlds edited by random deltas, from synthetic datasets under
// scattered and clustered churn, and from edge cases.
func TestDiffDatasetsMatchesMapOracle(t *testing.T) {
	for _, genSeed := range []int64{1, 5, 9} {
		base := worldDataset(t, testkit.GenWorldSpec(genSeed))
		rng := rand.New(rand.NewSource(genSeed * 13))
		for i := 0; i < 4; i++ {
			next := randomDelta(rng, base, 0.02+0.1*float64(i)).ApplyTo(base)
			reuseapi.RequireDiffMatchesOracle(t, fmt.Sprintf("world %d/random-%d", genSeed, i), base, next)
			reuseapi.RequireDiffMatchesOracle(t, fmt.Sprintf("world %d/random-%d reversed", genSeed, i), next, base)
		}
	}

	rng := rand.New(rand.NewSource(29))
	synth := reuseapi.SyntheticDataset(rng, 20_000, 600)
	reuseapi.RequireDiffMatchesOracle(t, "scattered",
		synth, reuseapi.ScatteredDelta(rng, synth, 0.01).ApplyTo(synth))
	reuseapi.RequireDiffMatchesOracle(t, "clustered",
		synth, reuseapi.ClusteredDelta(rng, synth, 77).ApplyTo(synth))

	empty := &reuseapi.Dataset{
		NATUsers:        map[iputil.Addr]int{},
		DynamicPrefixes: iputil.NewPrefixSet(),
		Generated:       synth.Generated,
	}
	restamped := (&reuseapi.Delta{Generated: synth.Generated.Add(time.Hour)}).ApplyTo(synth)
	disjoint := reuseapi.SyntheticDataset(rand.New(rand.NewSource(31)), 5_000, 100)
	for a := range disjoint.NATUsers {
		if _, ok := synth.NATUsers[a]; ok {
			t.Fatalf("disjoint: %v is in both datasets", a)
		}
	}
	for _, p := range disjoint.DynamicPrefixes.Sorted() {
		if synth.DynamicPrefixes.Contains(p) {
			t.Fatalf("disjoint: %v is in both datasets", p)
		}
	}
	revalued := &reuseapi.Delta{AddNAT: map[iputil.Addr]int{}}
	for a, u := range synth.NATUsers {
		if a%3 == 0 {
			revalued.AddNAT[a] = u + 1
		}
	}
	for name, pair := range map[string][2]*reuseapi.Dataset{
		"identical":  {synth, synth},
		"restamped":  {synth, restamped},
		"empty old":  {empty, synth},
		"empty new":  {synth, empty},
		"both empty": {empty, empty},
		"disjoint":   {synth, disjoint},
		"values":     {synth, revalued.ApplyTo(synth)},
	} {
		d := reuseapi.RequireDiffMatchesOracle(t, name, pair[0], pair[1])
		if name == "identical" || name == "restamped" || name == "both empty" {
			if !d.Empty() {
				t.Errorf("%s: diff carries %d ops, want none", name, d.Ops())
			}
		}
	}
}
