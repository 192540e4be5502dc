package ipset_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/reuseblock/reuseblock/internal/ipset"
	"github.com/reuseblock/reuseblock/internal/testkit"
)

// op is one step of the model-checked state machine. Kinds: 0 add, 1 remove,
// 2 addRange, 3 union-in a snapshot of earlier state (see applyOps).
type op struct {
	kind uint8
	v    uint32
	hi   uint32 // addRange upper bound
}

func (o op) String() string {
	switch o.kind {
	case 0:
		return fmt.Sprintf("Add(%#x)", o.v)
	case 1:
		return fmt.Sprintf("Remove(%#x)", o.v)
	case 2:
		return fmt.Sprintf("AddRange(%#x,%#x)", o.v, o.hi)
	default:
		return "UnionSnapshot"
	}
}

// genOps draws an op sequence biased toward collisions: values cluster into
// a handful of /16 blocks so containers actually cross the array/run/bitmap
// conversion thresholds instead of staying one-element arrays.
func genOps(rng *rand.Rand, n int) []op {
	blocks := []uint32{0x0000, 0x0001, 0xc0a8, 0xffff, uint32(rng.Intn(1 << 16))}
	ops := make([]op, n)
	for i := range ops {
		blk := blocks[rng.Intn(len(blocks))] << 16
		v := blk | uint32(rng.Intn(1<<16))
		switch k := rng.Intn(10); {
		case k < 5:
			ops[i] = op{kind: 0, v: v}
		case k < 7:
			ops[i] = op{kind: 1, v: v}
		case k < 9:
			span := uint32(rng.Intn(9000))
			hi := v + span
			if hi < v || hi>>16 != v>>16 && rng.Intn(2) == 0 {
				hi = blk | 0xffff // clamp some ranges inside the block
			}
			ops[i] = op{kind: 2, v: v, hi: hi}
		default:
			ops[i] = op{kind: 3}
		}
	}
	return ops
}

// applyOps runs the sequence against both the Set under test and the
// map[uint32]bool reference model, checking agreement after every step. A
// UnionSnapshot op unions in a clone of the set as it stood a few ops ago,
// exercising UnionWith against self-similar (worst-case overlap) input.
func applyOps(ops []op) error {
	s := ipset.New()
	ref := map[uint32]bool{}
	var snap *ipset.Set
	snapRef := map[uint32]bool{}
	for i, o := range ops {
		switch o.kind {
		case 0:
			added := s.Add(o.v)
			if added == ref[o.v] {
				return fmt.Errorf("op %d %v: added=%v but ref present=%v", i, o, added, ref[o.v])
			}
			ref[o.v] = true
		case 1:
			removed := s.Remove(o.v)
			if removed != ref[o.v] {
				return fmt.Errorf("op %d %v: removed=%v but ref present=%v", i, o, removed, ref[o.v])
			}
			delete(ref, o.v)
		case 2:
			s.AddRange(o.v, o.hi)
			for v := o.v; ; v++ {
				ref[v] = true
				if v == o.hi {
					break
				}
			}
		case 3:
			if snap != nil {
				s.UnionWith(snap)
				for v := range snapRef {
					ref[v] = true
				}
			}
			snap = s.Clone()
			snapRef = map[uint32]bool{}
			for v := range ref {
				snapRef[v] = true
			}
		}
		if s.Len() != len(ref) {
			return fmt.Errorf("op %d %v: Len=%d want %d", i, o, s.Len(), len(ref))
		}
	}
	// Full-state agreement: membership both ways and ascending iteration.
	want := make([]uint32, 0, len(ref))
	for v := range ref {
		want = append(want, v)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := make([]uint32, 0, s.Len())
	s.Iterate(func(v uint32) bool { got = append(got, v); return true })
	if len(got) != len(want) {
		return fmt.Errorf("iterate yielded %d values, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("iterate[%d]=%#x want %#x", i, got[i], want[i])
		}
	}
	// Membership of a stride-sample of the members.
	stride := len(want)/64 + 1
	for i := 0; i < len(want); i += stride {
		if v := want[i]; !s.Contains(v) {
			return fmt.Errorf("Contains(%#x)=false, in ref", v)
		}
	}
	// Compact must preserve content exactly.
	s.Compact()
	after := make([]uint32, 0, s.Len())
	s.Iterate(func(v uint32) bool { after = append(after, v); return true })
	if len(after) != len(want) {
		return fmt.Errorf("after Compact: %d values, want %d", len(after), len(want))
	}
	for i := range after {
		if after[i] != want[i] {
			return fmt.Errorf("after Compact: iterate[%d]=%#x want %#x", i, after[i], want[i])
		}
	}
	return nil
}

// TestSetModelEquivalence drives random op sequences against the reference
// model; a failing seed is shrunk to a minimal op sequence before reporting.
func TestSetModelEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			n := 400
			if testing.Short() {
				n = 150
			}
			ops := genOps(rand.New(rand.NewSource(seed)), n)
			err := applyOps(ops)
			if err == nil {
				return
			}
			min := testkit.ShrinkOps(ops, func(cand []op) bool {
				return applyOps(cand) != nil
			}, 400)
			t.Fatalf("model divergence: %v\nminimal sequence (%d ops): %v\nerror there: %v",
				err, len(min), min, applyOps(min))
		})
	}
}

// TestSetBoundaries pins the exact edge cases the interval representation
// gets wrong first: the address-space extremes, adjacent-interval
// coalescing, and ranges that straddle /16 block boundaries.
func TestSetBoundaries(t *testing.T) {
	t.Run("extremes", func(t *testing.T) {
		s := ipset.New()
		if !s.Add(0) || !s.Add(0xffffffff) {
			t.Fatal("adding extremes failed")
		}
		if !s.Contains(0) || !s.Contains(0xffffffff) {
			t.Fatal("extremes not contained")
		}
		// Ranges touching both ends of a block must not wrap the uint16
		// suffix arithmetic.
		s.AddRange(0xfffffff0, 0xffffffff)
		if s.Len() != 17 {
			t.Fatalf("Len=%d want 17", s.Len())
		}
		s.AddRange(0, 10)
		if s.Len() != 27 || !s.Contains(5) {
			t.Fatalf("Len=%d Contains(5)=%v", s.Len(), s.Contains(5))
		}
		if !s.Remove(0) || s.Contains(0) || !s.Remove(0xffffffff) || s.Contains(0xffffffff) {
			t.Fatal("removing extremes failed")
		}
	})

	t.Run("adjacent-interval-coalescing", func(t *testing.T) {
		s := ipset.New()
		s.AddRange(100, 200)
		s.AddRange(202, 300)
		if s.Len() != 200 {
			t.Fatalf("Len=%d want 200", s.Len())
		}
		if s.Contains(201) {
			t.Fatal("gap member present")
		}
		// Bridging the single gap must coalesce into one run: every member
		// of [100,300] present, count exact.
		s.Add(201)
		if s.Len() != 201 {
			t.Fatalf("after bridge Len=%d want 201", s.Len())
		}
		for v := uint32(100); v <= 300; v++ {
			if !s.Contains(v) {
				t.Fatalf("missing %d after coalesce", v)
			}
		}
		// Adjacent (not overlapping) range extends in place.
		s.AddRange(301, 400)
		if s.Len() != 301 || !s.Contains(400) {
			t.Fatalf("adjacent extend: Len=%d", s.Len())
		}
		// Removing mid-run splits it with exact boundaries.
		s.Remove(250)
		if s.Len() != 300 || s.Contains(250) || !s.Contains(249) || !s.Contains(251) {
			t.Fatal("mid-run removal wrong")
		}
	})

	t.Run("cross-block-range", func(t *testing.T) {
		s := ipset.New()
		// 3 full /16 blocks plus partial edges: 0x0001fffe .. 0x00050001.
		s.AddRange(0x0001fffe, 0x00050001)
		want := int(0x00050001-0x0001fffe) + 1
		if s.Len() != want {
			t.Fatalf("Len=%d want %d", s.Len(), want)
		}
		for _, v := range []uint32{0x0001fffe, 0x0001ffff, 0x00020000, 0x0003abcd, 0x0004ffff, 0x00050000, 0x00050001} {
			if !s.Contains(v) {
				t.Fatalf("missing %#x", v)
			}
		}
		if s.Contains(0x0001fffd) || s.Contains(0x00050002) {
			t.Fatal("range edges leaked")
		}
		s.Compact()
		if s.Len() != want || !s.Contains(0x0003abcd) {
			t.Fatal("Compact changed content")
		}
	})

	t.Run("inverted-range-is-noop", func(t *testing.T) {
		s := ipset.New()
		s.AddRange(10, 5)
		if s.Len() != 0 {
			t.Fatalf("Len=%d want 0", s.Len())
		}
	})
}

// TestSetConversionThresholds walks a single block through array → bitmap →
// array conversions and checks content at each shape.
func TestSetConversionThresholds(t *testing.T) {
	s := ipset.New()
	// 5000 spread-out members force array → bitmap (threshold 4096).
	for i := uint32(0); i < 5000; i++ {
		s.Add(i * 13)
	}
	if s.Len() != 5000 {
		t.Fatalf("Len=%d", s.Len())
	}
	for i := uint32(0); i < 5000; i++ {
		if !s.Contains(i * 13) {
			t.Fatalf("missing %d", i*13)
		}
		if s.Contains(i*13 + 1) {
			t.Fatalf("phantom %d", i*13+1)
		}
	}
	// Removing back below half the threshold converts to array again;
	// content must survive the round trip.
	for i := uint32(1000); i < 5000; i++ {
		if !s.Remove(i * 13) {
			t.Fatalf("Remove(%d) missed", i*13)
		}
	}
	if s.Len() != 1000 {
		t.Fatalf("Len=%d", s.Len())
	}
	for i := uint32(0); i < 1000; i++ {
		if !s.Contains(i * 13) {
			t.Fatalf("missing %d after downconvert", i*13)
		}
	}
}

// TestSetMemBytes sanity-checks the footprint accounting the scale bench
// depends on: a full /16 as a run costs ~bytes, not 65536 entries.
func TestSetMemBytes(t *testing.T) {
	run := ipset.New()
	run.AddRange(0x0a000000, 0x0a00ffff) // full /16 as one interval
	if run.Len() != 1<<16 {
		t.Fatalf("Len=%d", run.Len())
	}
	if b := run.MemBytes(); b > 256 {
		t.Fatalf("interval /16 costs %d bytes, want <=256", b)
	}
	dense := ipset.New()
	for i := uint32(0); i < 1<<16; i += 2 {
		dense.Add(0x0a000000 | i)
	}
	dense.Compact()
	if b := dense.MemBytes(); b > 9*1024 {
		t.Fatalf("alternating /16 costs %d bytes, want <=9KiB (bitmap)", b)
	}
}

// TestUnionWithInPlace checks the zero-alloc contract for bitmap receivers
// and cardinality bookkeeping across mixed container shapes.
func TestUnionWithInPlace(t *testing.T) {
	dst := ipset.New()
	for i := uint32(0); i < 6000; i++ {
		dst.Add(0x01020000 | i) // bitmap container
	}
	src := ipset.New()
	for i := uint32(0); i < 6000; i++ {
		src.Add(0x01020000 | (i + 3000)) // overlaps half
	}
	allocs := testing.AllocsPerRun(10, func() {
		dst.UnionWith(src)
	})
	if allocs != 0 {
		t.Fatalf("bitmap-receiver UnionWith allocated %.0f times", allocs)
	}
	if dst.Len() != 9000 {
		t.Fatalf("Len=%d want 9000", dst.Len())
	}
	// Union across shapes: run + array + bitmap sources into one receiver.
	mixed := ipset.New()
	mixed.AddRange(0x02000000, 0x0200ffff)
	mixed.Add(0x03000001)
	dst.UnionWith(mixed)
	if dst.Len() != 9000+1<<16+1 {
		t.Fatalf("Len=%d", dst.Len())
	}
	dst.UnionWith(nil) // nil-safe
	if dst.Len() != 9000+1<<16+1 {
		t.Fatal("nil union changed set")
	}
}

// TestSetBitmapDensePaths deterministically drives one block through the
// array -> bitmap promotion and exercises every read path against a sorted
// reference while the container is in bitmap form — the representation the
// randomized model test only reaches on long (non-short) runs.
func TestSetBitmapDensePaths(t *testing.T) {
	s := ipset.New()
	ref := make([]uint32, 0, 6000)
	// ~5500 scattered values in block 0x000a (stride 11 keeps runs short so
	// the container cannot stay in run form) plus a sibling sparse block.
	for v := uint32(0x000a0000); v <= 0x000affff; v += 11 {
		s.Add(v)
		ref = append(ref, v)
	}
	s.Add(0x00140005)
	ref = append(ref, 0x00140005)
	if s.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(ref))
	}

	var got []uint32
	s.Iterate(func(v uint32) bool { got = append(got, v); return true })
	if len(got) != len(ref) {
		t.Fatalf("Iterate yielded %d values, want %d", len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("Iterate[%d] = %#x, want %#x", i, got[i], ref[i])
		}
	}

	// Early termination must stop mid-bitmap.
	n := 0
	s.Iterate(func(uint32) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("early stop after %d values", n)
	}

	// Union of a run container into the bitmap block and vice versa.
	other := ipset.New()
	other.AddRange(0x000a1000, 0x000a2000)
	other.AddRange(0x00150000, 0x00150003)
	s.UnionWith(other)
	for v := uint32(0x000a1000); v <= 0x000a2000; v += 97 {
		if !s.Contains(v) {
			t.Fatalf("union lost %#x", v)
		}
	}
	if !s.Contains(0x00150001) {
		t.Fatal("union lost the new sparse block")
	}

	// Remove from the bitmap, then Clone/Compact must preserve contents.
	if !s.Remove(0x000a0000) || s.Contains(0x000a0000) {
		t.Fatal("Remove from bitmap failed")
	}
	before := s.Len()
	c := s.Clone()
	c.Compact()
	if c.Len() != before {
		t.Fatalf("Clone+Compact Len = %d, want %d", c.Len(), before)
	}
	if c.MemBytes() <= 0 {
		t.Fatal("MemBytes not positive")
	}
	// The clone is independent storage.
	c.Remove(0x00140005)
	if !s.Contains(0x00140005) {
		t.Fatal("Clone shares storage with original")
	}
}
