package bencode

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
)

// TestDecodeRejectsSignedForms pins the grammar the scanner enforces where
// strconv used to be lenient: lengths and integers carry no '+', and no
// length or integer is written as negative zero.
func TestDecodeRejectsSignedForms(t *testing.T) {
	for _, in := range []string{
		"+3:abc", "-0:", "-1:x", "i+5e", "i+0e", "i-0e", "i--1e",
		"d+1:ai1ee", "l-0:e", "d1:eli+5e1:xe1:t0:1:y1:ee",
		"i9223372036854775808e", "i-9223372036854775809e",
		"16777217:",
	} {
		if v, err := Decode([]byte(in)); !errors.Is(err, ErrSyntax) {
			t.Errorf("Decode(%q) = %#v, %v; want a syntax error", in, v, err)
		}
	}
	for in, want := range map[string]int64{
		"i9223372036854775807e":  1<<63 - 1,
		"i-9223372036854775808e": -1 << 63,
		"i0e":                    0,
	} {
		if v, err := Decode([]byte(in)); err != nil || v != want {
			t.Errorf("Decode(%q) = %v, %v; want %d", in, v, err, want)
		}
	}
}

func TestScannerWalk(t *testing.T) {
	data := []byte("d1:ad2:id3:abce1:eli201e1:xe1:ii-7e1:t2:aae")
	s, err := NewScanner(data)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for s.Next() {
		got = append(got, fmt.Sprintf("%s:%c:%q:%d:%q", s.Key(), s.Kind(), s.Bytes(), s.Int(), s.Raw()))
	}
	if err := s.Err(); err != nil || s.Len() != len(data) {
		t.Fatalf("Err = %v, Len = %d of %d", err, s.Len(), len(data))
	}
	want := []string{
		`a:d:"":0:"d2:id3:abce"`,
		`e:l:"":0:"li201e1:xe"`,
		`i:i:"":-7:"i-7e"`,
		`t:s:"aa":0:"2:aa"`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("walk =\n%q\nwant\n%q", got, want)
	}
	if _, err := NewScanner([]byte("i1e")); !errors.Is(err, ErrSyntax) {
		t.Errorf("NewScanner on an integer: %v", err)
	}
	s, _ = NewScanner([]byte("lei1e"))
	if s.Next() || s.Err() != nil || s.Len() != 2 {
		t.Errorf("empty list with trailing bytes: Next/Err/Len = %v, %d", s.Err(), s.Len())
	}
}

var sinkLen int

func TestScannerAllocs(t *testing.T) {
	data := []byte("d1:ad2:id20:SSSSSSSSSSSSSSSSSSSS6:target20:TTTTTTTTTTTTTTTTTTTTe1:q9:find_node1:t2:bb1:y1:qe")
	walk := func() {
		s, _ := NewScanner(data)
		for s.Next() {
			if s.Kind() == KindDict {
				inner, _ := NewScanner(s.Raw())
				for inner.Next() {
					sinkLen += len(inner.Bytes())
				}
			}
		}
		sinkLen += s.Len()
	}
	if got := testing.AllocsPerRun(100, walk); got != 0 {
		t.Errorf("scanning a datagram: %v allocs, want 0", got)
	}
}

// TestDecodeMatchesRecursiveDecoder checks the scanner-based Decode against
// the recursive descent decoder it replaced (with the stricter grammar
// applied) on random mutants of valid documents: the same verdict, the same
// error class and the same value.
func TestDecodeMatchesRecursiveDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	seeds := [][]byte{
		[]byte("d1:ad2:idi7ee1:q4:ping1:t2:aa1:y1:qe"),
		[]byte("li1eli2eli3eeee"),
		[]byte("d1:a1:b1:c1:de"),
		[]byte("i-42e"),
		[]byte("26:abcdefghijklmnopqrstuvwxyz"),
		bytes.Repeat([]byte("l"), 66),
	}
	for i := 0; i < 200; i++ {
		enc, err := Encode(genValue(rng, 0))
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, enc)
	}
	alphabet := []byte("0123456789-+:ield")
	for _, seed := range seeds {
		for k := 0; k < 50; k++ {
			m := append([]byte(nil), seed...)
			for n := 1 + rng.Intn(3); n > 0 && len(m) > 0; n-- {
				p := rng.Intn(len(m))
				switch rng.Intn(4) {
				case 0:
					m[p] = alphabet[rng.Intn(len(alphabet))]
				case 1:
					m = append(m[:p], m[p+1:]...)
				case 2:
					m = append(m[:p], append([]byte{alphabet[rng.Intn(len(alphabet))]}, m[p:]...)...)
				default:
					m = m[:p]
				}
			}
			want, werr := recursiveDecode(m)
			got, gerr := Decode(m)
			if decodeErrClass(werr) != decodeErrClass(gerr) {
				t.Fatalf("Decode(%q): error %v, recursive decoder %v", m, gerr, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Decode(%q) = %#v, recursive decoder %#v", m, got, want)
			}
		}
	}
}

func decodeErrClass(err error) error {
	for _, class := range []error{ErrTooDeep, ErrUnsorted, ErrTrailing, ErrSyntax} {
		if errors.Is(err, class) {
			return class
		}
	}
	return err
}

// recursiveDecode is the decoder Decode used before the Scanner: one
// recursive descent building Values, with strconv doing the number parsing.
// Two checks are added so it enforces the Scanner's grammar: lengths must
// start with a digit, and integers must not start with '+'.
func recursiveDecode(data []byte) (Value, error) {
	d := recursiveDecoder{data: data}
	v, err := d.value(0)
	if err != nil {
		return nil, err
	}
	if d.pos != len(data) {
		return nil, ErrTrailing
	}
	return v, nil
}

type recursiveDecoder struct {
	data []byte
	pos  int
}

func (d *recursiveDecoder) value(depth int) (Value, error) {
	if depth > maxNestDepth {
		return nil, ErrTooDeep
	}
	if d.pos >= len(d.data) {
		return nil, fmt.Errorf("%w: unexpected end of input", ErrSyntax)
	}
	switch c := d.data[d.pos]; {
	case c == 'i':
		return d.integer()
	case c >= '0' && c <= '9':
		return d.str()
	case c == 'l':
		d.pos++
		var list []Value
		for {
			if d.pos >= len(d.data) {
				return nil, fmt.Errorf("%w: unterminated list", ErrSyntax)
			}
			if d.data[d.pos] == 'e' {
				d.pos++
				return list, nil
			}
			v, err := d.value(depth + 1)
			if err != nil {
				return nil, err
			}
			list = append(list, v)
		}
	case c == 'd':
		d.pos++
		dict := make(map[string]Value)
		prevKey := ""
		first := true
		for {
			if d.pos >= len(d.data) {
				return nil, fmt.Errorf("%w: unterminated dict", ErrSyntax)
			}
			if d.data[d.pos] == 'e' {
				d.pos++
				return dict, nil
			}
			kv, err := d.str()
			if err != nil {
				return nil, fmt.Errorf("%w: dict key: %v", ErrSyntax, err)
			}
			key := kv.(string)
			if !first && key <= prevKey {
				return nil, ErrUnsorted
			}
			first, prevKey = false, key
			v, err := d.value(depth + 1)
			if err != nil {
				return nil, err
			}
			dict[key] = v
		}
	default:
		return nil, fmt.Errorf("%w: unexpected byte %q at %d", ErrSyntax, c, d.pos)
	}
}

func (d *recursiveDecoder) integer() (Value, error) {
	d.pos++ // 'i'
	end := bytes.IndexByte(d.data[d.pos:], 'e')
	if end < 0 {
		return nil, fmt.Errorf("%w: unterminated integer", ErrSyntax)
	}
	tok := string(d.data[d.pos : d.pos+end])
	if tok == "" || tok == "-" || tok[0] == '+' {
		return nil, fmt.Errorf("%w: empty integer", ErrSyntax)
	}
	if tok != "0" && (tok[0] == '0' || (tok[0] == '-' && tok[1] == '0')) {
		return nil, fmt.Errorf("%w: leading zero in integer %q", ErrSyntax, tok)
	}
	n, err := strconv.ParseInt(tok, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("%w: bad integer %q", ErrSyntax, tok)
	}
	d.pos += end + 1
	return n, nil
}

func (d *recursiveDecoder) str() (Value, error) {
	colon := bytes.IndexByte(d.data[d.pos:], ':')
	if colon < 0 {
		return nil, fmt.Errorf("%w: missing ':' in string length", ErrSyntax)
	}
	tok := string(d.data[d.pos : d.pos+colon])
	if tok == "" || tok[0] < '0' || tok[0] > '9' || (len(tok) > 1 && tok[0] == '0') {
		return nil, fmt.Errorf("%w: bad string length %q", ErrSyntax, tok)
	}
	n, err := strconv.Atoi(tok)
	if err != nil || n < 0 || n > maxStringSize {
		return nil, fmt.Errorf("%w: bad string length %q", ErrSyntax, tok)
	}
	start := d.pos + colon + 1
	if start+n > len(d.data) {
		return nil, fmt.Errorf("%w: string extends past input", ErrSyntax)
	}
	d.pos = start + n
	return string(d.data[start : start+n]), nil
}
