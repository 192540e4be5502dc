package iputil

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"255.255.255.255", 0xffffffff, true},
		{"192.0.2.7", AddrFrom4(192, 0, 2, 7), true},
		{"10.1.2.3", AddrFrom4(10, 1, 2, 3), true},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"256.0.0.1", 0, false},
		{"-1.0.0.1", 0, false},
		{"a.b.c.d", 0, false},
		{"01.2.3.4", 0, false},
		{"1..3.4", 0, false},
		{"", 0, false},
		{"1.2.3.4 ", 0, false},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseAddr(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseAddr(%q) succeeded, want error", c.in)
		}
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	f := func(u uint32) bool {
		a := Addr(u)
		back, err := ParseAddr(a.String())
		return err == nil && back == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestOctets(t *testing.T) {
	a := MustParseAddr("203.0.113.9")
	if got := a.Octets(); got != [4]byte{203, 0, 113, 9} {
		t.Fatalf("Octets = %v", got)
	}
}

func TestMasked(t *testing.T) {
	a := MustParseAddr("192.168.37.201")
	cases := []struct {
		bits int
		want string
	}{
		{32, "192.168.37.201"},
		{24, "192.168.37.0"},
		{16, "192.168.0.0"},
		{8, "192.0.0.0"},
		{0, "0.0.0.0"},
	}
	for _, c := range cases {
		if got := a.Masked(c.bits); got.String() != c.want {
			t.Errorf("Masked(%d) = %v, want %v", c.bits, got, c.want)
		}
	}
}

func TestPrefixParseAndContains(t *testing.T) {
	p := MustParsePrefix("198.51.100.0/24")
	if p.Bits() != 24 || p.Base().String() != "198.51.100.0" {
		t.Fatalf("parsed %v", p)
	}
	if !p.Contains(MustParseAddr("198.51.100.255")) {
		t.Error("should contain .255")
	}
	if p.Contains(MustParseAddr("198.51.101.0")) {
		t.Error("should not contain next /24")
	}
	if p.Size() != 256 {
		t.Errorf("Size = %d", p.Size())
	}
	// Non-canonical base is masked.
	q := MustParsePrefix("198.51.100.77/24")
	if q != p {
		t.Errorf("canonicalisation failed: %v != %v", q, p)
	}
}

func TestParsePrefixErrors(t *testing.T) {
	for _, in := range []string{"", "1.2.3.4", "1.2.3.4/33", "1.2.3.4/-1", "1.2.3.4/x", "1.2.3/24"} {
		if _, err := ParsePrefix(in); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded, want error", in)
		}
	}
}

func TestPrefixNth(t *testing.T) {
	p := MustParsePrefix("192.0.2.0/30")
	want := []string{"192.0.2.0", "192.0.2.1", "192.0.2.2", "192.0.2.3"}
	for i, w := range want {
		if got := p.Nth(i).String(); got != w {
			t.Errorf("Nth(%d) = %s, want %s", i, got, w)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Nth out of range should panic")
		}
	}()
	p.Nth(4)
}

func TestSlash24(t *testing.T) {
	a := MustParseAddr("203.0.113.200")
	if got := a.Slash24(); got != MustParsePrefix("203.0.113.0/24") {
		t.Errorf("Slash24 = %v", got)
	}
}

func TestPrefixContainmentProperty(t *testing.T) {
	// Every address inside a prefix, when masked to the prefix length,
	// equals the base; addresses outside never do.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		bits := rng.Intn(25) + 8
		p := PrefixFrom(Addr(rng.Uint32()), bits)
		inside := p.Nth(rng.Intn(p.Size()))
		if !p.Contains(inside) {
			t.Fatalf("%v should contain %v", p, inside)
		}
	}
}
