package krpc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

func testID(fill byte) NodeID {
	var id NodeID
	for i := range id {
		id[i] = fill
	}
	return id
}

func TestNodeIDFromBytes(t *testing.T) {
	if _, err := NodeIDFromBytes(make([]byte, 19)); err == nil {
		t.Error("short ID should error")
	}
	b := make([]byte, 20)
	b[0] = 0xab
	id, err := NodeIDFromBytes(b)
	if err != nil || id[0] != 0xab {
		t.Errorf("NodeIDFromBytes = %v, %v", id, err)
	}
}

func TestGenerateNodeIDDeterministic(t *testing.T) {
	ip := iputil.MustParseAddr("192.168.1.10")
	a := GenerateNodeID(ip, 42)
	b := GenerateNodeID(ip, 42)
	c := GenerateNodeID(ip, 43)
	if a != b {
		t.Error("same inputs must give same ID")
	}
	if a == c {
		t.Error("different randoms must give different IDs")
	}
}

func TestXORAndBucketIndex(t *testing.T) {
	a := testID(0)
	if a.BucketIndex(a) != -1 {
		t.Error("distance to self should be -1")
	}
	var b NodeID
	b[0] = 0x80 // highest bit set
	if got := a.BucketIndex(b); got != 159 {
		t.Errorf("BucketIndex = %d, want 159", got)
	}
	var c NodeID
	c[19] = 0x01 // lowest bit
	if got := a.BucketIndex(c); got != 0 {
		t.Errorf("BucketIndex = %d, want 0", got)
	}
}

func TestLessOrdersByDistance(t *testing.T) {
	target := testID(0)
	near, far := testID(0), testID(0)
	near[19] = 1
	far[0] = 0x80
	if !near.Less(far, target) {
		t.Error("near should order before far")
	}
	if far.Less(near, target) {
		t.Error("far should not order before near")
	}
}

func TestCompactNodesRoundTrip(t *testing.T) {
	nodes := []NodeInfo{
		{testID(1), iputil.MustParseAddr("192.0.2.1"), 6881},
		{testID(2), iputil.MustParseAddr("203.0.113.77"), 65535},
	}
	data := MarshalCompactNodes(nodes)
	if len(data) != 2*CompactNodeLen {
		t.Fatalf("compact length = %d", len(data))
	}
	back, err := UnmarshalCompactNodes(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range nodes {
		if back[i] != nodes[i] {
			t.Errorf("node %d = %+v, want %+v", i, back[i], nodes[i])
		}
	}
	if _, err := UnmarshalCompactNodes(data[:10]); err == nil {
		t.Error("truncated compact data should error")
	}
}

func TestPingRoundTrip(t *testing.T) {
	self := testID(7)
	q := NewPing([]byte("aa"), self)
	data, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindQuery || m.Method != MethodPing || m.ID != self || string(m.TxID) != "aa" {
		t.Errorf("ping round trip = %+v", m)
	}
}

func TestFindNodeRoundTrip(t *testing.T) {
	self, target := testID(1), testID(9)
	q := NewFindNode([]byte("tx"), self, target)
	data, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.Method != MethodFindNode || m.Target != target {
		t.Errorf("find_node round trip = %+v", m)
	}
}

func TestFindNodeResponseRoundTrip(t *testing.T) {
	self := testID(3)
	nodes := []NodeInfo{
		{testID(4), iputil.MustParseAddr("198.51.100.4"), 51413},
		{testID(5), iputil.MustParseAddr("198.51.100.5"), 6881},
	}
	r := NewFindNodeResponse([]byte("tx"), self, nodes, []byte("LT0101"))
	data, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindResponse || len(m.Nodes) != 2 || m.Nodes[1].Port != 6881 {
		t.Errorf("response = %+v", m)
	}
	if string(m.Version) != "LT0101" {
		t.Errorf("version = %q", m.Version)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	e := NewError([]byte("tx"), ErrCodeMethodUnknown, "Method Unknown")
	data, err := e.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindError || m.ErrCode != 204 || m.ErrMsg != "Method Unknown" {
		t.Errorf("error round trip = %+v", m)
	}
}

func TestUnmarshalMalformed(t *testing.T) {
	bad := [][]byte{
		nil,
		[]byte("i1e"),                      // not a dict
		[]byte("de"),                       // missing everything
		[]byte("d1:t2:aae"),                // missing y
		[]byte("d1:t2:aa1:y1:xe"),          // unknown kind
		[]byte("d1:t2:aa1:y1:qe"),          // query without method
		[]byte("d1:q4:ping1:t2:aa1:y1:qe"), // query without args
		[]byte("d1:rde1:t2:aa1:y1:re"),     // response without id
		[]byte("d1:ele1:t2:aa1:y1:ee"),     // short error body
	}
	for _, in := range bad {
		if _, err := Unmarshal(in); err == nil {
			t.Errorf("Unmarshal(%q) succeeded, want error", in)
		}
	}
}

func TestUnmarshalShortNodeID(t *testing.T) {
	// Query with an 8-byte id.
	data := []byte("d1:ad2:id8:shortide1:q4:ping1:t2:aa1:y1:qe")
	if _, err := Unmarshal(data); !errors.Is(err, ErrMalformed) {
		t.Errorf("short id: %v", err)
	}
}

func TestMarshalUnknownMethod(t *testing.T) {
	m := &Message{TxID: []byte("t"), Kind: KindQuery, Method: "bogus"}
	if _, err := m.Marshal(); err == nil {
		t.Error("unknown method should not marshal")
	}
	// BEP 5 methods outside ping and find_node still decode, so a node can
	// answer them with an error, but never marshal.
	for method, raw := range map[string]string{
		"get_peers":     getPeersQuery,
		"announce_peer": announcePeerQuery,
	} {
		m, err := Unmarshal([]byte(raw))
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if m.Kind != KindQuery || m.Method != method {
			t.Fatalf("%s decoded as %+v", method, m)
		}
		if _, err := m.Marshal(); err == nil {
			t.Errorf("%s should not marshal", method)
		}
	}
}

func TestRoundTripRandomised(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		var id, target NodeID
		rng.Read(id[:])
		rng.Read(target[:])
		var msgs []*Message
		msgs = append(msgs,
			NewPing([]byte("t1"), id),
			NewFindNode([]byte("t2"), id, target),
			NewPingResponse([]byte("t3"), id, []byte("ve")),
			NewError([]byte("t4"), ErrCodeGeneric, "oops"),
		)
		n := rng.Intn(8)
		nodes := make([]NodeInfo, n)
		for j := range nodes {
			rng.Read(nodes[j].ID[:])
			nodes[j].Addr = iputil.Addr(rng.Uint32())
			nodes[j].Port = uint16(rng.Intn(65536))
		}
		msgs = append(msgs, NewFindNodeResponse([]byte("t5"), id, nodes, nil))
		for _, m := range msgs {
			data, err := m.Marshal()
			if err != nil {
				t.Fatalf("Marshal(%+v): %v", m, err)
			}
			back, err := Unmarshal(data)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			data2, err := back.Marshal()
			if err != nil || !bytes.Equal(data, data2) {
				t.Fatalf("re-encode mismatch: %q vs %q", data, data2)
			}
		}
	}
}

// TestNodeIDEqualMatchesArrayEquality: the word-wise compare agrees with ==
// on equal IDs and on IDs that differ in any one byte.
func TestNodeIDEqualMatchesArrayEquality(t *testing.T) {
	a := GenerateNodeID(0x0a000001, 7)
	b := a
	if !a.Equal(&b) {
		t.Fatal("a.Equal(a) = false")
	}
	for i := range b {
		b = a
		b[i] ^= 0x80
		if a.Equal(&b) || b.Equal(&a) {
			t.Fatalf("IDs differing in byte %d compare equal", i)
		}
	}
}
