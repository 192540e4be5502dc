// Package iputil provides compact IPv4 address and prefix value types used
// throughout the repository.
//
// Addresses are stored as host-order uint32 values so they can be used as map
// keys and compared, sorted, and masked cheaply. Prefixes are (base, length)
// pairs with canonicalised bases. The package also provides address sets and
// a longest-prefix-match table.
package iputil

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order.
type Addr uint32

// ErrBadAddr is returned when textual input does not parse as an IPv4
// address or prefix.
var ErrBadAddr = errors.New("iputil: malformed IPv4 address")

// AddrFrom4 builds an Addr from four octets, a.b.c.d.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses dotted-quad notation ("192.0.2.7").
func ParseAddr(s string) (Addr, error) {
	var parts [4]uint32
	rest := s
	for i := 0; i < 4; i++ {
		var tok string
		if i < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, fmt.Errorf("%w: %q", ErrBadAddr, s)
			}
			tok, rest = rest[:dot], rest[dot+1:]
		} else {
			tok = rest
		}
		if tok == "" || len(tok) > 3 {
			return 0, fmt.Errorf("%w: %q", ErrBadAddr, s)
		}
		// Hand-rolled digit loop: an octet is at most three digits, and this
		// parse sits on the serving hot path (every /v1/check request).
		n := uint32(0)
		for j := 0; j < len(tok); j++ {
			c := tok[j]
			if c < '0' || c > '9' {
				return 0, fmt.Errorf("%w: %q", ErrBadAddr, s)
			}
			n = n*10 + uint32(c-'0')
		}
		if n > 255 {
			return 0, fmt.Errorf("%w: %q", ErrBadAddr, s)
		}
		if len(tok) > 1 && tok[0] == '0' {
			return 0, fmt.Errorf("%w: leading zero in %q", ErrBadAddr, s)
		}
		parts[i] = uint32(n)
	}
	return Addr(parts[0]<<24 | parts[1]<<16 | parts[2]<<8 | parts[3]), nil
}

// MustParseAddr is ParseAddr that panics on error; intended for constants in
// tests and examples.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String renders the address in dotted-quad notation.
func (a Addr) String() string {
	var b [15]byte
	return string(a.AppendText(b[:0]))
}

// AppendText appends the dotted-quad form to b and returns the extended
// slice — the allocation-free form used by streamed artifact writers.
func (a Addr) AppendText(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(a>>24), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(a>>16&0xff), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(a>>8&0xff), 10)
	b = append(b, '.')
	return strconv.AppendUint(b, uint64(a&0xff), 10)
}

// Octets returns the four address bytes in network order.
func (a Addr) Octets() [4]byte {
	return [4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}
}

// Slash24 returns the /24 prefix covering a. The paper aggregates dynamic
// detections to /24 granularity (§3.2), so this is the most used projection.
func (a Addr) Slash24() Prefix {
	return Prefix{base: a &^ 0xff, bits: 24}
}

// Masked clears host bits below the given prefix length.
func (a Addr) Masked(bits int) Addr {
	if bits <= 0 {
		return 0
	}
	if bits >= 32 {
		return a
	}
	return a &^ (1<<(32-uint(bits)) - 1)
}

// Prefix is an IPv4 CIDR prefix with a canonical (masked) base address.
type Prefix struct {
	base Addr
	bits uint8
}

// PrefixFrom builds a canonical prefix covering addr at the given length.
// It panics if bits is outside [0, 32].
func PrefixFrom(addr Addr, bits int) Prefix {
	if bits < 0 || bits > 32 {
		panic("iputil: prefix length out of range")
	}
	return Prefix{base: addr.Masked(bits), bits: uint8(bits)}
}

// ParsePrefix parses CIDR notation ("192.0.2.0/24").
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("%w: missing '/' in %q", ErrBadAddr, s)
	}
	addr, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("%w: bad prefix length in %q", ErrBadAddr, s)
	}
	return PrefixFrom(addr, bits), nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Base returns the first address of the prefix.
func (p Prefix) Base() Addr { return p.base }

// Bits returns the prefix length.
func (p Prefix) Bits() int { return int(p.bits) }

// Size returns the number of addresses covered by the prefix.
func (p Prefix) Size() int {
	return 1 << (32 - uint(p.bits))
}

// Contains reports whether a falls inside the prefix.
func (p Prefix) Contains(a Addr) bool {
	return a.Masked(int(p.bits)) == p.base
}

// Nth returns the i'th address inside the prefix; it panics when i is out of
// range.
func (p Prefix) Nth(i int) Addr {
	if i < 0 || i >= p.Size() {
		panic("iputil: address index outside prefix")
	}
	return p.base + Addr(i)
}

// String renders CIDR notation.
func (p Prefix) String() string {
	return p.base.String() + "/" + strconv.Itoa(int(p.bits))
}
