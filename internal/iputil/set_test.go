package iputil

import (
	"math/rand"
	"testing"
)

func TestSetBasics(t *testing.T) {
	s := NewSet()
	a := MustParseAddr("192.0.2.1")
	if !s.Add(a) {
		t.Error("first Add should report true")
	}
	if s.Add(a) {
		t.Error("second Add should report false")
	}
	if !s.Contains(a) || s.Len() != 1 {
		t.Error("membership broken")
	}
	s.Remove(a)
	if s.Contains(a) || s.Len() != 0 {
		t.Error("Remove broken")
	}
}

func TestSetSorted(t *testing.T) {
	s := SetOf(9, 3, 7, 1)
	got := s.Sorted()
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("not sorted: %v", got)
		}
	}
}

func TestSetAddSet(t *testing.T) {
	a := SetOf(1, 2)
	a.AddSet(SetOf(2, 3))
	if a.Len() != 3 {
		t.Errorf("union size = %d", a.Len())
	}
}

func TestSetSlash24s(t *testing.T) {
	s := SetOf(
		MustParseAddr("10.0.0.1"),
		MustParseAddr("10.0.0.200"),
		MustParseAddr("10.0.1.1"),
	)
	ps := s.Slash24s()
	if ps.Len() != 2 {
		t.Errorf("want 2 /24s, got %d", ps.Len())
	}
	if !ps.Contains(MustParsePrefix("10.0.0.0/24")) {
		t.Error("missing 10.0.0.0/24")
	}
}

func TestPrefixSetCovers(t *testing.T) {
	ps := NewPrefixSet()
	ps.Add(MustParsePrefix("10.0.0.0/8"))
	ps.Add(MustParsePrefix("192.0.2.0/24"))
	cases := []struct {
		addr string
		want bool
	}{
		{"10.200.3.4", true},
		{"192.0.2.99", true},
		{"192.0.3.1", false},
		{"11.0.0.1", false},
	}
	for _, c := range cases {
		if got := ps.Covers(MustParseAddr(c.addr)); got != c.want {
			t.Errorf("Covers(%s) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestPrefixSetSorted(t *testing.T) {
	ps := NewPrefixSet()
	ps.Add(MustParsePrefix("10.0.0.0/24"))
	ps.Add(MustParsePrefix("9.0.0.0/8"))
	ps.Add(MustParsePrefix("10.0.0.0/16"))
	got := ps.Sorted()
	want := []string{"9.0.0.0/8", "10.0.0.0/16", "10.0.0.0/24"}
	for i, w := range want {
		if got[i].String() != w {
			t.Errorf("Sorted[%d] = %v, want %s", i, got[i], w)
		}
	}
}

// TestPrefixSetCoversAgainstLinear cross-checks Covers, CoveringPrefix and
// the compiled Table against a brute-force scan over random mixed-length
// prefix sets. The brute force tracks the longest containing prefix, so the
// longest-match contract of CoveringPrefix (and of Table.Lookup on the
// compiled form) is pinned here too.
func TestPrefixSetCoversAgainstLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		ps := NewPrefixSet()
		var list []Prefix
		for i := 0; i < 50; i++ {
			p := PrefixFrom(Addr(rng.Uint32()), 8+rng.Intn(25))
			ps.Add(p)
			list = append(list, p)
		}
		table := ps.Compile()
		if table.Len() != ps.Len() {
			t.Fatalf("Compile len = %d, want %d", table.Len(), ps.Len())
		}
		for i := 0; i < 500; i++ {
			a := Addr(rng.Uint32())
			want := false
			var longest Prefix
			for _, p := range list {
				if p.Contains(a) {
					if !want || p.Bits() > longest.Bits() {
						longest = p
					}
					want = true
				}
			}
			if got := ps.Covers(a); got != want {
				t.Fatalf("Covers(%v) = %v, want %v", a, got, want)
			}
			gotP, ok := ps.CoveringPrefix(a)
			if ok != want || (ok && gotP != longest) {
				t.Fatalf("CoveringPrefix(%v) = %v, %v; want %v, %v", a, gotP, ok, longest, want)
			}
			tblP, tblOK := table.Lookup(a)
			if tblOK != want || (tblOK && tblP != longest) {
				t.Fatalf("Compile().Lookup(%v) = %v, %v; want %v, %v", a, tblP, tblOK, longest, want)
			}
		}
	}
}

func TestCoveringPrefixLongestWins(t *testing.T) {
	ps := NewPrefixSet()
	ps.Add(MustParsePrefix("10.0.0.0/8"))
	ps.Add(MustParsePrefix("10.9.0.0/16"))
	ps.Add(MustParsePrefix("10.9.7.0/24"))
	p, ok := ps.CoveringPrefix(MustParseAddr("10.9.7.200"))
	if !ok || p.String() != "10.9.7.0/24" {
		t.Errorf("CoveringPrefix = %v, %v; want 10.9.7.0/24", p, ok)
	}
	p, ok = ps.CoveringPrefix(MustParseAddr("10.9.8.1"))
	if !ok || p.String() != "10.9.0.0/16" {
		t.Errorf("CoveringPrefix = %v, %v; want 10.9.0.0/16", p, ok)
	}
	if _, ok := ps.CoveringPrefix(MustParseAddr("11.0.0.1")); ok {
		t.Error("CoveringPrefix matched outside every member")
	}
	// The extreme lengths: /32 and the default route /0.
	ps.Add(MustParsePrefix("10.9.7.9/32"))
	ps.Add(MustParsePrefix("0.0.0.0/0"))
	for addr, want := range map[string]string{"10.9.7.9": "10.9.7.9/32", "10.9.7.8": "10.9.7.0/24", "11.0.0.1": "0.0.0.0/0"} {
		if p, ok := ps.CoveringPrefix(MustParseAddr(addr)); !ok || p.String() != want {
			t.Errorf("CoveringPrefix(%s) = %v, %v; want %s", addr, p, ok, want)
		}
	}
}
