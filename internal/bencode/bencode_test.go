package bencode

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEncodePrimitives(t *testing.T) {
	cases := []struct {
		in   Value
		want string
	}{
		{int64(42), "i42e"},
		{int64(-7), "i-7e"},
		{int64(0), "i0e"},
		{int(5), "i5e"},
		{"spam", "4:spam"},
		{"", "0:"},
		{[]byte{0x00, 0xff}, "2:\x00\xff"},
		{[]Value{int64(1), "a"}, "li1e1:ae"},
		{[]Value(nil), "le"},
		{map[string]Value{"b": int64(2), "a": int64(1)}, "d1:ai1e1:bi2ee"},
	}
	for _, c := range cases {
		got, err := Encode(c.in)
		if err != nil {
			t.Errorf("Encode(%v): %v", c.in, err)
			continue
		}
		if string(got) != c.want {
			t.Errorf("Encode(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestEncodeUnsupported(t *testing.T) {
	if _, err := Encode(3.14); err == nil {
		t.Error("floats must not encode")
	}
}

func TestDecodePrimitives(t *testing.T) {
	cases := []struct {
		in   string
		want Value
	}{
		{"i42e", int64(42)},
		{"i-1e", int64(-1)},
		{"4:spam", "spam"},
		{"0:", ""},
		{"le", []Value(nil)},
		{"li1e1:ae", []Value{int64(1), "a"}},
		{"de", map[string]Value{}},
		{"d1:ai1e1:bi2ee", map[string]Value{"a": int64(1), "b": int64(2)}},
	}
	for _, c := range cases {
		got, err := Decode([]byte(c.in))
		if err != nil {
			t.Errorf("Decode(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Decode(%q) = %#v, want %#v", c.in, got, c.want)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := []string{
		"", "i", "ie", "i-e", "i01e", "i-0e", "iabce",
		"5:spam", "-1:x", "01:x", "4spam",
		"l", "li1e", "d", "d1:a", "d1:ai1e", "dli1eei1ee",
		"i1ei2e", "x",
		"d1:bi1e1:ai2ee", // unsorted keys
		"d1:ai1e1:ai2ee", // duplicate keys
	}
	for _, in := range bad {
		if _, err := Decode([]byte(in)); err == nil {
			t.Errorf("Decode(%q) succeeded, want error", in)
		}
	}
}

func TestDecodeDepthLimit(t *testing.T) {
	deep := bytes.Repeat([]byte("l"), 100)
	deep = append(deep, bytes.Repeat([]byte("e"), 100)...)
	if _, err := Decode(deep); !errors.Is(err, ErrTooDeep) {
		t.Errorf("deep nesting: %v, want ErrTooDeep", err)
	}
}

func TestDecodePrefix(t *testing.T) {
	v, n, err := DecodePrefix([]byte("i7etrailing"))
	if err != nil || v != int64(7) || n != 3 {
		t.Errorf("DecodePrefix = %v, %d, %v", v, n, err)
	}
}

// genValue builds a random Value of bounded depth for round-trip testing.
func genValue(rng *rand.Rand, depth int) Value {
	switch k := rng.Intn(4); {
	case k == 0 || depth >= 3:
		return int64(rng.Int63n(1<<40) - 1<<39)
	case k == 1:
		b := make([]byte, rng.Intn(20))
		rng.Read(b)
		return string(b)
	case k == 2:
		n := rng.Intn(4)
		var list []Value
		for i := 0; i < n; i++ {
			list = append(list, genValue(rng, depth+1))
		}
		return list
	default:
		n := rng.Intn(4)
		dict := make(map[string]Value)
		for i := 0; i < n; i++ {
			key := make([]byte, 1+rng.Intn(8))
			rng.Read(key)
			dict[string(key)] = genValue(rng, depth+1)
		}
		return dict
	}
}

func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		v := genValue(rng, 0)
		enc, err := Encode(v)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(%q): %v", enc, err)
		}
		if !equalValue(v, back) {
			t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", v, back)
		}
		// Canonical: re-encoding the decoded value must be identical.
		enc2, err := Encode(back)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical encoding violated: %q vs %q (%v)", enc, enc2, err)
		}
	}
}

// equalValue compares Values treating nil and empty lists as equal.
func equalValue(a, b Value) bool {
	switch x := a.(type) {
	case []Value:
		y, ok := b.([]Value)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !equalValue(x[i], y[i]) {
				return false
			}
		}
		return true
	case map[string]Value:
		y, ok := b.(map[string]Value)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			if !equalValue(v, y[k]) {
				return false
			}
		}
		return true
	default:
		return a == b
	}
}

func TestDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Decode(data) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}
