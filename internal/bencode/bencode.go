// Package bencode implements the BitTorrent bencoding format (BEP 3):
// integers (i...e), byte strings (<len>:<bytes>), lists (l...e) and
// dictionaries (d...e with lexicographically sorted keys).
//
// Scanner is the one home of the syntax rules — the integer and length
// grammar, sorted unique dictionary keys, the nesting and string-size
// limits. It walks a list or dictionary without building anything; the KRPC
// codec reads datagrams straight from it, and Decode builds dynamic Values
// on top of it (adding only the no-trailing-bytes check) for the fault
// injector.
package bencode

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
)

// Value is the dynamic representation of a bencoded term:
//
//	int64            — integer
//	string           — byte string
//	[]Value          — list
//	map[string]Value — dictionary
type Value interface{}

// Errors returned by the decoder.
var (
	ErrSyntax     = errors.New("bencode: syntax error")
	ErrTrailing   = errors.New("bencode: trailing data after value")
	ErrUnsorted   = errors.New("bencode: dictionary keys not sorted")
	ErrTooDeep    = errors.New("bencode: nesting too deep")
	maxNestDepth  = 64
	maxStringSize = 16 << 20
)

// Encode renders v in canonical bencoding. Supported dynamic types are the
// Value shapes plus int/uint variants and []byte.
func Encode(v Value) ([]byte, error) {
	var buf bytes.Buffer
	if err := encodeValue(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func encodeValue(buf *bytes.Buffer, v Value) error {
	switch x := v.(type) {
	case int64:
		encodeInt(buf, x)
	case int:
		encodeInt(buf, int64(x))
	case int32:
		encodeInt(buf, int64(x))
	case uint32:
		encodeInt(buf, int64(x))
	case uint16:
		encodeInt(buf, int64(x))
	case string:
		encodeString(buf, x)
	case []byte:
		encodeString(buf, string(x))
	case []Value:
		buf.WriteByte('l')
		for _, e := range x {
			if err := encodeValue(buf, e); err != nil {
				return err
			}
		}
		buf.WriteByte('e')
	case map[string]Value:
		buf.WriteByte('d')
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			encodeString(buf, k)
			if err := encodeValue(buf, x[k]); err != nil {
				return err
			}
		}
		buf.WriteByte('e')
	default:
		return fmt.Errorf("bencode: cannot encode %T", v)
	}
	return nil
}

func encodeInt(buf *bytes.Buffer, n int64) {
	buf.WriteByte('i')
	buf.WriteString(strconv.FormatInt(n, 10))
	buf.WriteByte('e')
}

func encodeString(buf *bytes.Buffer, s string) {
	buf.WriteString(strconv.Itoa(len(s)))
	buf.WriteByte(':')
	buf.WriteString(s)
}

// Decode parses a single bencoded value and requires the input to be fully
// consumed.
func Decode(data []byte) (Value, error) {
	v, n, err := DecodePrefix(data)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, ErrTrailing
	}
	return v, nil
}

// DecodePrefix parses a single bencoded value from the front of data and
// returns it along with the number of bytes consumed.
func DecodePrefix(data []byte) (Value, int, error) {
	it, err := scanValue(data, 0, 0)
	if err != nil {
		return nil, 0, err
	}
	return build(data, it, 0), it.end, nil
}

// build turns one validated item, nested depth levels deep, into its
// dynamic Value.
func build(data []byte, it item, depth int) Value {
	switch it.kind {
	case KindInt:
		return it.num
	case KindString:
		return string(data[it.str:it.end])
	}
	s := Scanner{data: data[:it.end], pos: it.start + 1, depth: depth + 1, dict: it.kind == KindDict}
	if it.kind == KindList {
		var list []Value
		for s.Next() {
			list = append(list, build(s.data, s.cur, depth+1))
		}
		return list
	}
	dict := make(map[string]Value)
	for s.Next() {
		dict[string(s.key)] = build(s.data, s.cur, depth+1)
	}
	return dict
}

// Kind classifies a scanned value.
type Kind byte

// Value kinds reported by a Scanner.
const (
	KindInt    Kind = 'i'
	KindString Kind = 's'
	KindList   Kind = 'l'
	KindDict   Kind = 'd'
)

// item is one validated value: its kind, its byte range [start, end) in the
// scanned input, and its decoded content — the integer, or the offset at
// which a string's bytes begin.
type item struct {
	kind       Kind
	start, end int
	str        int
	num        int64
}

// Scanner walks the elements of one bencoded list or dictionary, validating
// each as it passes, without building Values and without allocating on
// well-formed input:
//
//	s, err := bencode.NewScanner(data)
//	for s.Next() {
//		switch string(s.Key()) { ... } // s.Kind(), s.Bytes(), s.Int(), s.Raw()
//	}
//	if err := s.Err(); err != nil { ... }
//
// Nested lists and dictionaries are validated in full when the scanner
// steps over them; Raw returns their encoding for a nested Scanner.
type Scanner struct {
	data  []byte
	pos   int
	depth int // nesting depth of the container's elements
	dict  bool
	key   []byte
	keyed bool // a key has been read (the sorted-key check needs a predecessor)
	cur   item
	err   error
	done  bool
}

// NewScanner starts a Scanner over the list or dictionary at the front of
// data. Bytes after the container's closing 'e' are not examined; compare
// Len with len(data) to reject them.
func NewScanner(data []byte) (Scanner, error) {
	if len(data) == 0 || (data[0] != 'l' && data[0] != 'd') {
		return Scanner{}, fmt.Errorf("%w: not a list or dictionary", ErrSyntax)
	}
	return Scanner{data: data, pos: 1, depth: 1, dict: data[0] == 'd'}, nil
}

// Next advances to the next element. It returns false at the container's
// end or at the first syntax error; Err tells the two apart.
func (s *Scanner) Next() bool {
	if s.err != nil || s.done {
		return false
	}
	if s.pos >= len(s.data) {
		if s.dict {
			s.err = fmt.Errorf("%w: unterminated dict", ErrSyntax)
		} else {
			s.err = fmt.Errorf("%w: unterminated list", ErrSyntax)
		}
		return false
	}
	if s.data[s.pos] == 'e' {
		s.pos++
		s.done = true
		return false
	}
	if s.dict {
		str, end, err := scanString(s.data, s.pos)
		if err != nil {
			s.err = fmt.Errorf("%w: dict key: %v", ErrSyntax, err)
			return false
		}
		key := s.data[str:end]
		if s.keyed && bytes.Compare(key, s.key) <= 0 {
			s.err = ErrUnsorted
			return false
		}
		s.key, s.keyed, s.pos = key, true, end
	}
	it, err := scanValue(s.data, s.pos, s.depth)
	if err != nil {
		s.err = err
		return false
	}
	s.cur, s.pos = it, it.end
	return true
}

// Err returns the syntax error that stopped the scan, if any.
func (s *Scanner) Err() error { return s.err }

// Len returns the number of bytes the container occupies, including its
// closing 'e'; it is meaningful once Next has returned false with a nil Err.
func (s *Scanner) Len() int { return s.pos }

// Key returns the current element's dictionary key (nil inside a list).
func (s *Scanner) Key() []byte { return s.key }

// Kind returns the current element's kind.
func (s *Scanner) Kind() Kind { return s.cur.kind }

// Raw returns the current element's full encoding.
func (s *Scanner) Raw() []byte { return s.data[s.cur.start:s.cur.end] }

// Bytes returns the current string element's content (nil for other kinds).
func (s *Scanner) Bytes() []byte {
	if s.cur.kind != KindString {
		return nil
	}
	return s.data[s.cur.str:s.cur.end]
}

// Int returns the current integer element's value (0 for other kinds).
func (s *Scanner) Int() int64 { return s.cur.num }

// scanValue validates the value at data[pos], nested depth levels deep, and
// returns it as an item. This and the helpers below are the only place the
// syntax rules live: the integer grammar -?[1-9][0-9]*|0 within int64, the
// length grammar [1-9][0-9]*|0 up to maxStringSize, sorted unique dict keys
// (in Scanner.Next) and the nesting limit.
func scanValue(data []byte, pos, depth int) (item, error) {
	if depth > maxNestDepth {
		return item{}, ErrTooDeep
	}
	if pos >= len(data) {
		return item{}, fmt.Errorf("%w: unexpected end of input", ErrSyntax)
	}
	switch c := data[pos]; {
	case c == 'i':
		n, end, err := scanInt(data, pos+1)
		return item{kind: KindInt, start: pos, end: end, num: n}, err
	case c >= '0' && c <= '9':
		str, end, err := scanString(data, pos)
		return item{kind: KindString, start: pos, end: end, str: str}, err
	case c == 'l' || c == 'd':
		s := Scanner{data: data, pos: pos + 1, depth: depth + 1, dict: c == 'd'}
		for s.Next() {
		}
		if s.err != nil {
			return item{}, s.err
		}
		return item{kind: Kind(c), start: pos, end: s.pos}, nil
	default:
		return item{}, fmt.Errorf("%w: unexpected byte %q at %d", ErrSyntax, c, pos)
	}
}

// scanInt parses the digits of an integer starting just after its 'i' and
// returns the value and the offset past the closing 'e'.
func scanInt(data []byte, pos int) (int64, int, error) {
	neg := pos < len(data) && data[pos] == '-'
	digits := pos
	if neg {
		digits++
	}
	var u uint64
	i := digits
	for ; i < len(data) && data[i] >= '0' && data[i] <= '9'; i++ {
		if u > (1<<63)/10 {
			return 0, 0, fmt.Errorf("%w: integer overflows int64", ErrSyntax)
		}
		u = u*10 + uint64(data[i]-'0')
		if u > 1<<63 {
			return 0, 0, fmt.Errorf("%w: integer overflows int64", ErrSyntax)
		}
	}
	switch {
	case i >= len(data) || data[i] != 'e':
		return 0, 0, fmt.Errorf("%w: bad or unterminated integer", ErrSyntax)
	case i == digits:
		return 0, 0, fmt.Errorf("%w: empty integer", ErrSyntax)
	case data[digits] == '0' && (neg || i > digits+1):
		return 0, 0, fmt.Errorf("%w: leading zero in integer %q", ErrSyntax, data[pos:i])
	case !neg && u > 1<<63-1:
		return 0, 0, fmt.Errorf("%w: integer overflows int64", ErrSyntax)
	}
	if neg {
		return -int64(u), i + 1, nil // -int64(1<<63) wraps to MinInt64
	}
	return int64(u), i + 1, nil
}

// scanString parses a string's length prefix at data[pos] and returns the
// offsets of its first content byte and of the byte just past it.
func scanString(data []byte, pos int) (int, int, error) {
	n, i := 0, pos
	for ; i < len(data) && data[i] >= '0' && data[i] <= '9'; i++ {
		n = n*10 + int(data[i]-'0')
		if n > maxStringSize {
			return 0, 0, fmt.Errorf("%w: string length exceeds %d", ErrSyntax, maxStringSize)
		}
	}
	switch {
	case i >= len(data) || data[i] != ':':
		return 0, 0, fmt.Errorf("%w: bad string length", ErrSyntax)
	case i == pos || (data[pos] == '0' && i > pos+1):
		return 0, 0, fmt.Errorf("%w: bad string length %q", ErrSyntax, data[pos:i])
	}
	start := i + 1
	if n > len(data)-start {
		return 0, 0, fmt.Errorf("%w: string extends past input", ErrSyntax)
	}
	return start, start + n, nil
}
