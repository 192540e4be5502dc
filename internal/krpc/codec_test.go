package krpc

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

func fillID(b byte) NodeID {
	var id NodeID
	for i := range id {
		id[i] = b
	}
	return id
}

// eightNodes is a full find_node answer: k = 8 compact node infos.
func eightNodes() []NodeInfo {
	var nodes []NodeInfo
	for i := 0; i < 8; i++ {
		nodes = append(nodes, NodeInfo{ID: fillID(byte('a' + i)), Addr: iputil.AddrFrom4(198, 51, 100, byte(i+1)), Port: uint16(6881 + i)})
	}
	return nodes
}

// TestConstructorBytesPinned pins every constructor's wire bytes to
// literals captured from the generic map-based encoder, so the direct
// encoder provably changes no datagram.
func TestConstructorBytesPinned(t *testing.T) {
	self, target, nodes := fillID('S'), fillID('T'), eightNodes()
	cases := []struct {
		name string
		m    *Message
		want string
	}{
		{"ping", NewPing([]byte("aa"), self),
			"d1:ad2:id20:SSSSSSSSSSSSSSSSSSSSe1:q4:ping1:t2:aa1:y1:qe"},
		{"find_node", NewFindNode([]byte("bb"), self, target),
			"d1:ad2:id20:SSSSSSSSSSSSSSSSSSSS6:target20:TTTTTTTTTTTTTTTTTTTTe1:q9:find_node1:t2:bb1:y1:qe"},
		{"ping response", NewPingResponse([]byte("cc"), self, nil),
			"d1:rd2:id20:SSSSSSSSSSSSSSSSSSSSe1:t2:cc1:y1:re"},
		{"ping response with v", NewPingResponse([]byte("cc"), self, []byte("LT0101")),
			"d1:rd2:id20:SSSSSSSSSSSSSSSSSSSSe1:t2:cc1:v6:LT01011:y1:re"},
		{"find_node response 0 nodes", NewFindNodeResponse([]byte("dd"), self, nil, []byte("LT0101")),
			"d1:rd2:id20:SSSSSSSSSSSSSSSSSSSSe1:t2:dd1:v6:LT01011:y1:re"},
		{"find_node response 1 node", NewFindNodeResponse([]byte("dd"), self, nodes[:1], []byte("LT0101")),
			"d1:rd2:id20:SSSSSSSSSSSSSSSSSSSS5:nodes26:aaaaaaaaaaaaaaaaaaaa\xc63d\x01\x1a\xe1e1:t2:dd1:v6:LT01011:y1:re"},
		{"find_node response 8 nodes", NewFindNodeResponse([]byte("dd"), self, nodes, nil),
			"d1:rd2:id20:SSSSSSSSSSSSSSSSSSSS5:nodes208:aaaaaaaaaaaaaaaaaaaa\xc63d\x01\x1a\xe1bbbbbbbbbbbbbbbbbbbb\xc63d\x02\x1a\xe2cccccccccccccccccccc\xc63d\x03\x1a\xe3dddddddddddddddddddd\xc63d\x04\x1a\xe4eeeeeeeeeeeeeeeeeeee\xc63d\x05\x1a\xe5ffffffffffffffffffff\xc63d\x06\x1a\xe6gggggggggggggggggggg\xc63d\a\x1a\xe7hhhhhhhhhhhhhhhhhhhh\xc63d\b\x1a\xe8e1:t2:dd1:y1:re"},
		{"error", NewError([]byte("ee"), ErrCodeMethodUnknown, "Method Unknown"),
			"d1:eli204e14:Method Unknowne1:t2:ee1:y1:ee"},
	}
	for _, c := range cases {
		got, err := c.m.AppendMarshal(nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(got) != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, c.want)
		}
		if cap(got) != len(got) {
			t.Errorf("%s: buffer cap %d for %d bytes, want an exact fit", c.name, cap(got), len(got))
		}
		if app, err := c.m.AppendMarshal([]byte("prefix")); err != nil || string(app) != "prefix"+c.want {
			t.Errorf("%s: AppendMarshal = %q, %v; want the datagram after the prefix", c.name, app, err)
		}
		checkDifferential(t, got)
	}
}

// errClass buckets a decode error the way callers can tell errors apart.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrBadKind):
		return "bad kind"
	case errors.Is(err, ErrMalformed):
		return "malformed"
	}
	return "other"
}

// checkDifferential decodes data with both codecs and requires the same
// verdict, the same error class, the same Message and the same re-encoding.
func checkDifferential(t *testing.T, data []byte) {
	t.Helper()
	want, werr := oracleUnmarshal(data)
	got, gerr := decode(data)
	if errClass(werr) != errClass(gerr) {
		t.Fatalf("UnmarshalInto(%q): error %v (%s), oracle %v (%s)", data, gerr, errClass(gerr), werr, errClass(werr))
	}
	if werr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("UnmarshalInto(%q) =\n%#v\noracle\n%#v", data, got, want)
	}
	wenc, werr := oracleMarshal(want)
	genc, gerr := got.AppendMarshal(nil)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("AppendMarshal of %q: error %v, oracle %v", data, gerr, werr)
	}
	if !bytes.Equal(genc, wenc) {
		t.Fatalf("AppendMarshal of %q:\n got %q\nwant %q", data, genc, wenc)
	}
}

// FuzzCodecDifferential checks the direct codec against the map-based
// oracle on arbitrary datagrams. Its corpus starts from FuzzUnmarshal's
// committed inputs.
func FuzzCodecDifferential(f *testing.F) {
	id := fillID('S')
	for _, m := range []*Message{
		NewPing([]byte("aa"), id),
		NewFindNode([]byte("bb"), id, fillID('T')),
		NewPingResponse([]byte("cc"), id, []byte("LT0101")),
		NewFindNodeResponse([]byte("dd"), id, eightNodes(), []byte("v")),
		NewError([]byte("ee"), ErrCodeGeneric, "x"),
	} {
		b, err := m.AppendMarshal(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		getPeersQuery,
		announcePeerQuery,
		"d+1:ai1ee",                       // signed key length
		"d1:eli+5e1:xe1:t0:1:y1:ee",       // signed integer
		"d1:eli-0e1:xe1:t0:1:y1:ee",       // negative zero
		"d1:t-0:1:y1:re",                  // signed string length
		"d1:eli201ee1:t0:1:y1:ee",         // error list with one element
		"d1:eli201e1:x3:xyze1:t0:1:y1:ee", // error list with three elements
		"d1:e3:abc1:t0:1:y1:ee",           // error body not a list
		"d1:rd2:id20:SSSSSSSSSSSSSSSSSSSS5:nodesi1ee1:t0:1:y1:re", // non-string nodes
		"d1:ad2:idi1ee1:q4:ping1:t0:1:y1:qe",                      // non-string id
		"d1:t2:aa1:v3:abc1:y1:ze",                                 // unknown kind after a version
		"d1:t2:aa1:y1:rei1e",                                      // trailing bytes
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDifferential)
}

var sinkBytes []byte

// TestCodecAllocs pins the per-datagram allocation counts: AppendMarshal
// allocates exactly its output buffer when given none, and UnmarshalInto
// and AppendMarshal nothing once their message and buffer are warm.
func TestCodecAllocs(t *testing.T) {
	id := fillID('S')
	ping, _ := NewPing([]byte("aa"), id).AppendMarshal(nil)
	resp, _ := NewFindNodeResponse([]byte("dd"), id, eightNodes(), []byte("LT0101")).AppendMarshal(nil)
	for _, m := range []*Message{
		NewPing([]byte("aa"), id),
		NewFindNode([]byte("bb"), id, fillID('T')),
		NewPingResponse([]byte("cc"), id, []byte("LT0101")),
		NewFindNodeResponse([]byte("dd"), id, eightNodes(), []byte("LT0101")),
		NewError([]byte("ee"), ErrCodeMethodUnknown, "Method Unknown"),
	} {
		if got := testing.AllocsPerRun(100, func() { sinkBytes, _ = m.AppendMarshal(nil) }); got != 1 {
			t.Errorf("AppendMarshal(nil) %+v: %v allocs, want 1", m, got)
		}
		buf := make([]byte, 0, 512)
		if got := testing.AllocsPerRun(100, func() { sinkBytes, _ = m.AppendMarshal(buf[:0]) }); got != 0 {
			t.Errorf("AppendMarshal %+v: %v allocs, want 0", m, got)
		}
	}
	var into Message
	for _, data := range [][]byte{ping, resp} {
		if got := testing.AllocsPerRun(100, func() { _ = UnmarshalInto(data, &into) }); got != 0 {
			t.Errorf("UnmarshalInto(%q): %v allocs, want 0", data, got)
		}
	}
}

func BenchmarkUnmarshalPing(b *testing.B) {
	data, _ := NewPing([]byte("aa"), fillID('S')).AppendMarshal(nil)
	var m Message
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = UnmarshalInto(data, &m)
	}
}

func BenchmarkMarshalFindNodeResponse(b *testing.B) {
	m := NewFindNodeResponse([]byte("dd"), fillID('S'), eightNodes(), []byte("LT0101"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBytes, _ = m.AppendMarshal(sinkBytes[:0])
	}
}
