// Package bencode implements the BitTorrent bencoding format (BEP 3):
// integers (i...e), byte strings (<len>:<bytes>), lists (l...e) and
// dictionaries (d...e with lexicographically sorted keys).
//
// Terms are handled as dynamic Values (Encode/Decode); the KRPC and fleet
// control-plane codecs build and read those dicts directly.
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
	d := decoder{data: data}
	v, err := d.value(0)
	if err != nil {
		return nil, err
	}
	if d.pos != len(data) {
		return nil, ErrTrailing
	}
	return v, nil
}

// DecodePrefix parses a single bencoded value from the front of data and
// returns it along with the number of bytes consumed.
func DecodePrefix(data []byte) (Value, int, error) {
	d := decoder{data: data}
	v, err := d.value(0)
	if err != nil {
		return nil, 0, err
	}
	return v, d.pos, nil
}

type decoder struct {
	data []byte
	pos  int
}

func (d *decoder) value(depth int) (Value, error) {
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

func (d *decoder) integer() (Value, error) {
	d.pos++ // 'i'
	end := bytes.IndexByte(d.data[d.pos:], 'e')
	if end < 0 {
		return nil, fmt.Errorf("%w: unterminated integer", ErrSyntax)
	}
	tok := string(d.data[d.pos : d.pos+end])
	if tok == "" || tok == "-" {
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

func (d *decoder) str() (Value, error) {
	colon := bytes.IndexByte(d.data[d.pos:], ':')
	if colon < 0 {
		return nil, fmt.Errorf("%w: missing ':' in string length", ErrSyntax)
	}
	tok := string(d.data[d.pos : d.pos+colon])
	if tok == "" || (len(tok) > 1 && tok[0] == '0') {
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
