package krpc

import "testing"

// get_peers and announce_peer queries as a BitTorrent client sends them,
// with zero IDs. This package has no constructor for either, but they must
// keep exercising the unknown-method decode path.
var (
	zeroID            = string(make([]byte, IDLen))
	getPeersQuery     = "d1:ad2:id20:" + zeroID + "9:info_hash20:" + zeroID + "e1:q9:get_peers1:t2:ee1:y1:qe"
	announcePeerQuery = "d1:ad2:id20:" + zeroID + "9:info_hash20:" + zeroID + "4:porti6881e5:token3:toke1:q13:announce_peer1:t2:ff1:y1:qe"
)

// FuzzUnmarshal feeds arbitrary datagrams to the KRPC decoder: no panics,
// and accepted messages must survive a marshal/unmarshal round trip.
func FuzzUnmarshal(f *testing.F) {
	var id NodeID
	ping, _ := NewPing("aa", id).Marshal()
	fn, _ := NewFindNode("bb", id, id).Marshal()
	resp, _ := NewFindNodeResponse("cc", id, []NodeInfo{{ID: id, Addr: 1, Port: 2}}, "v").Marshal()
	errMsg, _ := NewError("dd", 201, "x").Marshal()
	gp, ann := []byte(getPeersQuery), []byte(announcePeerQuery)
	// Corruption-shaped seeds: the fault injector truncates datagrams and
	// chops compact node lists mid-entry, so the corpus covers truncation at
	// every interesting boundary and node strings whose length is not a
	// multiple of CompactNodeLen.
	corrupt := [][]byte{
		resp[:len(resp)/2], // truncated mid-message
		resp[:len(resp)-1], // missing final 'e'
		ping[:1],           // lone 'd'
		fn[:len(fn)/3],     // truncated query
		[]byte("d1:rd2:id20:aaaaaaaaaaaaaaaaaaaa5:nodes13:aaaaaaaaaaaaae1:t2:cc1:y1:re"), // nodes len 13 (%26 != 0)
		[]byte("d1:rd2:id20:aaaaaaaaaaaaaaaaaaaa5:nodes0:e1:t2:cc1:y1:re"),               // empty nodes
		[]byte("d1:rd5:nodes27:aaaaaaaaaaaaaaaaaaaaaaaaaaae1:t2:cc1:y1:re"),              // 26+1 bytes
		[]byte("d1:t999999999:xe"), // bencode length lies about the buffer
		[]byte("d1:y1:re"),         // response with no r dict
	}
	for _, seed := range append([][]byte{ping, fn, resp, errMsg, gp, ann, []byte("de"), []byte("i1e")}, corrupt...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		enc, err := m.Marshal()
		if err != nil {
			// Some decodable inputs aren't encodable (e.g. unknown query
			// methods) — acceptable asymmetry.
			return
		}
		if _, err := Unmarshal(enc); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}
