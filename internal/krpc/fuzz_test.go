package krpc

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// get_peers and announce_peer queries as a BitTorrent client sends them,
// with zero IDs. This package has no constructor for either, but they must
// keep exercising the unknown-method decode path.
var (
	zeroID            = string(make([]byte, IDLen))
	getPeersQuery     = "d1:ad2:id20:" + zeroID + "9:info_hash20:" + zeroID + "e1:q9:get_peers1:t2:ee1:y1:qe"
	announcePeerQuery = "d1:ad2:id20:" + zeroID + "9:info_hash20:" + zeroID + "4:porti6881e5:token3:toke1:q13:announce_peer1:t2:ff1:y1:qe"
)

// FuzzUnmarshal feeds arbitrary datagrams to the KRPC decoder: no panics,
// and accepted messages must survive an encode/decode round trip.
func FuzzUnmarshal(f *testing.F) {
	for _, seed := range unmarshalSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if UnmarshalInto(data, &m) != nil {
			return
		}
		enc, err := m.AppendMarshal(nil)
		if err != nil {
			// Some decodable inputs aren't encodable (e.g. unknown query
			// methods) — acceptable asymmetry.
			return
		}
		if err := UnmarshalInto(enc, &m); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

// unmarshalSeeds is FuzzUnmarshal's seed corpus.
func unmarshalSeeds() [][]byte {
	var id NodeID
	ping, _ := NewPing([]byte("aa"), id).AppendMarshal(nil)
	fn, _ := NewFindNode([]byte("bb"), id, id).AppendMarshal(nil)
	resp, _ := NewFindNodeResponse([]byte("cc"), id, []NodeInfo{{ID: id, Addr: 1, Port: 2}}, []byte("v")).AppendMarshal(nil)
	errMsg, _ := NewError([]byte("dd"), 201, "x").AppendMarshal(nil)
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
	return append([][]byte{ping, fn, resp, errMsg, gp, ann, []byte("de"), []byte("i1e")}, corrupt...)
}

// FuzzUnmarshalInto decodes each datagram into a reused, dirty Message and
// requires what a decode into a fresh Message gives: the same error, or the
// same message with nothing left over from the previous contents. Its corpus
// starts from FuzzUnmarshal's seeds and committed inputs.
func FuzzUnmarshalInto(f *testing.F) {
	for _, seed := range unmarshalSeeds() {
		f.Add(seed)
	}
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzUnmarshal", "*"))
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range files {
		f.Add(readCorpusBytes(f, name))
	}
	f.Fuzz(checkInto)
}

// checkInto decodes data into a dirty Message, twice over, and compares
// it with a decode into a fresh Message.
func checkInto(t *testing.T, data []byte) {
	want, werr := decode(data)
	m := dirtyMessage()
	for pass := 0; pass < 2; pass++ {
		gerr := UnmarshalInto(data, m)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("UnmarshalInto(%q): error %v, fresh decode %v", data, gerr, werr)
		}
		if werr == nil && !reflect.DeepEqual(m, want) {
			t.Fatalf("UnmarshalInto(%q) over a used message =\n%#v\nfresh decode\n%#v", data, m, want)
		}
	}
}

// dirtyMessage has every field set, and spare node capacity, as a message
// reused after decoding something else would.
func dirtyMessage() *Message {
	nodes := make([]NodeInfo, 3, 16)
	for i := range nodes {
		nodes[i] = NodeInfo{ID: fillID('N'), Addr: 9, Port: 9}
	}
	return &Message{
		TxID: []byte("stale"), Kind: 'z', Version: []byte("old"),
		Method: "stale", ID: fillID('I'), Target: fillID('T'),
		Nodes: nodes, ErrCode: 999, ErrMsg: "stale",
	}
}

// readCorpusBytes reads the single []byte value of a committed fuzz corpus
// file ("go test fuzz v1" then one []byte("...") line).
func readCorpusBytes(tb testing.TB, name string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(name)
	if err != nil {
		tb.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		tb.Fatalf("%s: not a one-[]byte corpus file", name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return []byte(s)
}
