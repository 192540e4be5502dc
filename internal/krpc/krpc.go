// Package krpc implements the KRPC protocol used by the BitTorrent Mainline
// DHT (BEP 5): bencoded dictionaries carried in single UDP datagrams, with
// three message types — query ("q"), response ("r") and error ("e").
//
// The paper's crawler names map onto KRPC as follows: the paper's bt_ping is
// the KRPC "ping" query, and the paper's get_nodes is the KRPC "find_node"
// query, whose response carries compact node info (ID, IP, port) for
// neighbours of the target.
package krpc

import (
	"bytes"
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/reuseblock/reuseblock/internal/bencode"
	"github.com/reuseblock/reuseblock/internal/iputil"
)

// IDLen is the length of a DHT node identifier in bytes (160 bits).
const IDLen = 20

// NodeID is a 160-bit DHT node identifier.
type NodeID [IDLen]byte

// NodeIDFromBytes copies a 20-byte slice into a NodeID.
func NodeIDFromBytes(b []byte) (NodeID, error) {
	var id NodeID
	if len(b) != IDLen {
		return id, fmt.Errorf("krpc: node ID must be %d bytes, got %d", IDLen, len(b))
	}
	copy(id[:], b)
	return id, nil
}

// GenerateNodeID derives a node ID the way BitTorrent clients commonly do —
// and the way the paper describes (§3.1): hash the (possibly private) IP
// address together with a random number. Rebooting regenerates the random
// part, which is exactly why the paper's crawler cannot rely on node IDs to
// identify users.
func GenerateNodeID(privateIP iputil.Addr, random uint64) NodeID {
	var buf [12]byte
	binary.BigEndian.PutUint32(buf[0:4], uint32(privateIP))
	binary.BigEndian.PutUint64(buf[4:12], random)
	return NodeID(sha1.Sum(buf[:]))
}

// String renders the ID as lowercase hex.
func (id NodeID) String() string { return hex.EncodeToString(id[:]) }

// XOR returns the Kademlia distance between two IDs.
func (id NodeID) XOR(other NodeID) NodeID {
	var out NodeID
	for i := range id {
		out[i] = id[i] ^ other[i]
	}
	return out
}

// BucketIndex returns the index of the highest set bit of the XOR distance,
// i.e. 159 for maximally distant IDs and -1 for identical IDs. Routing
// tables use it to pick a k-bucket.
func (id NodeID) BucketIndex(other NodeID) int {
	d := id.XOR(other)
	for i, b := range d {
		if b != 0 {
			for j := 7; j >= 0; j-- {
				if b&(1<<uint(j)) != 0 {
					return (IDLen-1-i)*8 + j
				}
			}
		}
	}
	return -1
}

// Less orders IDs by XOR distance to a target; used for find_node responses.
func (id NodeID) Less(other, target NodeID) bool {
	for i := range id {
		da := id[i] ^ target[i]
		db := other[i] ^ target[i]
		if da != db {
			return da < db
		}
	}
	return false
}

// Equal reports whether id and other are the same ID. It compares word by
// word from the tail, with no call: IDs that share a routing-table bucket
// share their leading bits, so the tail tells a mismatch soonest.
func (id *NodeID) Equal(other *NodeID) bool {
	return binary.LittleEndian.Uint32(id[16:]) == binary.LittleEndian.Uint32(other[16:]) &&
		binary.LittleEndian.Uint64(id[8:]) == binary.LittleEndian.Uint64(other[8:]) &&
		binary.LittleEndian.Uint64(id[:8]) == binary.LittleEndian.Uint64(other[:8])
}

// NodeInfo is the compact (ID, address, port) triple exchanged in find_node
// responses.
type NodeInfo struct {
	ID   NodeID
	Addr iputil.Addr
	Port uint16
}

// CompactNodeLen is the wire size of one compact node info entry.
const CompactNodeLen = IDLen + 6

// MarshalCompactNodes renders node infos in BEP 5 compact form: 26 bytes per
// node (20-byte ID, 4-byte IPv4, 2-byte big-endian port).
func MarshalCompactNodes(nodes []NodeInfo) []byte {
	return appendCompactNodes(make([]byte, 0, len(nodes)*CompactNodeLen), nodes)
}

func appendCompactNodes(out []byte, nodes []NodeInfo) []byte {
	for _, n := range nodes {
		out = append(out, n.ID[:]...)
		oct := n.Addr.Octets()
		out = append(out, oct[:]...)
		out = append(out, byte(n.Port>>8), byte(n.Port))
	}
	return out
}

// UnmarshalCompactNodes parses BEP 5 compact node info.
func UnmarshalCompactNodes(data []byte) ([]NodeInfo, error) {
	if err := checkCompactNodes(data); err != nil {
		return nil, err
	}
	return appendNodeInfos(make([]NodeInfo, 0, len(data)/CompactNodeLen), data), nil
}

func checkCompactNodes(data []byte) error {
	if len(data)%CompactNodeLen != 0 {
		return fmt.Errorf("krpc: compact node data length %d not a multiple of %d", len(data), CompactNodeLen)
	}
	return nil
}

// appendNodeInfos appends the compact node infos in data, whose length
// checkCompactNodes accepted, to nodes.
func appendNodeInfos(nodes []NodeInfo, data []byte) []NodeInfo {
	for off := 0; off < len(data); off += CompactNodeLen {
		var n NodeInfo
		copy(n.ID[:], data[off:off+IDLen])
		n.Addr = iputil.AddrFrom4(data[off+IDLen], data[off+IDLen+1], data[off+IDLen+2], data[off+IDLen+3])
		n.Port = uint16(data[off+IDLen+4])<<8 | uint16(data[off+IDLen+5])
		nodes = append(nodes, n)
	}
	return nodes
}

// Kind discriminates the three KRPC message types.
type Kind byte

// KRPC message kinds.
const (
	KindQuery    Kind = 'q'
	KindResponse Kind = 'r'
	KindError    Kind = 'e'
)

// Query method names (BEP 5). These are the only two the paper's crawler
// sends; other methods decode but do not marshal.
const (
	MethodPing     = "ping"      // the paper's bt_ping
	MethodFindNode = "find_node" // the paper's get_nodes
)

// Standard KRPC error codes.
const (
	ErrCodeGeneric       = 201
	ErrCodeServer        = 202
	ErrCodeProtocol      = 203
	ErrCodeMethodUnknown = 204
)

// Message is a decoded KRPC message. Exactly one of Query/Response/Error
// content is meaningful depending on Kind. A message decoded by
// UnmarshalInto shares TxID and Version with its datagram; Clone or
// Unmarshal gives one that owns all its memory.
type Message struct {
	TxID    []byte // transaction ID echoed by responses
	Kind    Kind
	Version []byte // optional client version ("v" key)

	// Query fields.
	Method string
	ID     NodeID // querying or responding node's ID
	Target NodeID // find_node target

	// Response fields.
	Nodes []NodeInfo // compact nodes in find_node responses

	// Error fields.
	ErrCode int
	ErrMsg  string
}

// Errors returned when decoding malformed datagrams.
var (
	ErrMalformed = errors.New("krpc: malformed message")
	ErrBadKind   = errors.New("krpc: unknown message kind")
)

// The constructors keep the slices they are given; each one inlines, so a
// message that does not outlive its caller stays on the caller's stack.

// NewPing builds a ping query — the paper's bt_ping.
func NewPing(txID []byte, self NodeID) *Message {
	return &Message{TxID: txID, Kind: KindQuery, Method: MethodPing, ID: self}
}

// NewFindNode builds a find_node query — the paper's get_nodes.
func NewFindNode(txID []byte, self, target NodeID) *Message {
	return &Message{TxID: txID, Kind: KindQuery, Method: MethodFindNode, ID: self, Target: target}
}

// NewPingResponse builds the response to a ping.
func NewPingResponse(txID []byte, self NodeID, version []byte) *Message {
	return &Message{TxID: txID, Kind: KindResponse, ID: self, Version: version}
}

// NewFindNodeResponse builds the response to a find_node carrying up to k
// neighbours.
func NewFindNodeResponse(txID []byte, self NodeID, nodes []NodeInfo, version []byte) *Message {
	return &Message{TxID: txID, Kind: KindResponse, ID: self, Nodes: nodes, Version: version}
}

// NewError builds an error reply.
func NewError(txID []byte, code int, msg string) *Message {
	return &Message{TxID: txID, Kind: KindError, ErrCode: code, ErrMsg: msg}
}

// Clone returns a deep copy of m: what a caller keeps of a message decoded
// in place.
func (m *Message) Clone() *Message {
	return &Message{
		TxID:    bytes.Clone(m.TxID),
		Kind:    m.Kind,
		Version: bytes.Clone(m.Version),
		Method:  m.Method,
		ID:      m.ID,
		Target:  m.Target,
		Nodes:   slices.Clone(m.Nodes),
		ErrCode: m.ErrCode,
		ErrMsg:  m.ErrMsg,
	}
}

// Marshal encodes the message into its canonical bencoded datagram, in one
// exact-size buffer.
func (m *Message) Marshal() ([]byte, error) {
	n, err := m.size()
	if err != nil {
		return nil, err
	}
	return m.appendTo(make([]byte, 0, n)), nil
}

// AppendMarshal appends the message's datagram to b and returns the
// extended buffer; a caller that reuses b encodes without allocating. On
// error b comes back unchanged.
func (m *Message) AppendMarshal(b []byte) ([]byte, error) {
	n, err := m.size()
	if err != nil {
		return b, err
	}
	return m.appendTo(slices.Grow(b, n)), nil
}

// size returns the length of the message's datagram, or why it cannot be
// encoded.
func (m *Message) size() (int, error) {
	var body int // the kind's own entries
	switch m.Kind {
	case KindQuery:
		switch m.Method {
		case MethodPing:
			body = len("1:ad2:id20:") + IDLen + len("e")
		case MethodFindNode:
			body = len("1:ad2:id20:") + IDLen + len("6:target20:") + IDLen + len("e")
		default:
			// A clone, so no field of m escapes through the error: a
			// response's node list may live on its caller's stack.
			return 0, fmt.Errorf("krpc: unknown method %q", strings.Clone(m.Method))
		}
		body += len("1:q") + stringLen(len(m.Method))
	case KindResponse:
		body = len("1:rd2:id20:") + IDLen + len("e")
		if len(m.Nodes) > 0 {
			body += len("5:nodes") + stringLen(len(m.Nodes)*CompactNodeLen)
		}
	case KindError:
		body = len("1:eli") + intLen(int64(m.ErrCode)) + len("e") + stringLen(len(m.ErrMsg)) + len("e")
	default:
		return 0, ErrBadKind
	}
	n := len("d") + body + len("1:t") + stringLen(len(m.TxID)) + len("1:y1:qe")
	if len(m.Version) > 0 {
		n += len("1:v") + stringLen(len(m.Version))
	}
	return n, nil
}

// appendTo writes the datagram of a message size accepted. Every
// dictionary's keys are written in their sorted order (a/e < q < r < t < v
// < y at the top level, id < nodes/target inside).
func (m *Message) appendTo(b []byte) []byte {
	b = append(b, 'd')
	switch m.Kind {
	case KindQuery:
		b = append(b, "1:ad2:id20:"...)
		b = append(b, m.ID[:]...)
		if m.Method == MethodFindNode {
			b = append(b, "6:target20:"...)
			b = append(b, m.Target[:]...)
		}
		b = append(b, "e1:q"...)
		b = appendString(b, m.Method)
	case KindResponse:
		b = append(b, "1:rd2:id20:"...)
		b = append(b, m.ID[:]...)
		if len(m.Nodes) > 0 {
			b = append(b, "5:nodes"...)
			b = strconv.AppendInt(b, int64(len(m.Nodes)*CompactNodeLen), 10)
			b = appendCompactNodes(append(b, ':'), m.Nodes)
		}
		b = append(b, 'e')
	case KindError:
		b = append(b, "1:eli"...)
		b = strconv.AppendInt(b, int64(m.ErrCode), 10)
		b = appendString(append(b, 'e'), m.ErrMsg)
		b = append(b, 'e')
	}
	b = appendString(append(b, "1:t"...), m.TxID)
	if len(m.Version) > 0 {
		b = appendString(append(b, "1:v"...), m.Version)
	}
	return append(b, '1', ':', 'y', '1', ':', byte(m.Kind), 'e')
}

// appendString appends s as a bencoded string.
func appendString[S string | []byte](b []byte, s S) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	return append(append(b, ':'), s...)
}

// stringLen is the encoded size of an n-byte bencoded string.
func stringLen(n int) int { return intLen(int64(n)) + 1 + n }

// intLen is the number of characters in n's decimal form.
func intLen(n int64) int {
	var buf [20]byte
	return len(strconv.AppendInt(buf[:0], n, 10))
}

// Unmarshal decodes a bencoded datagram into a new Message that shares no
// memory with data: UnmarshalInto on a private copy of the datagram.
func Unmarshal(data []byte) (*Message, error) {
	m := new(Message)
	if err := UnmarshalInto(bytes.Clone(data), m); err != nil {
		return nil, err
	}
	return m, nil
}

// UnmarshalInto decodes a bencoded datagram into m, overwriting every field.
// It reads the fields straight off a bencode.Scanner, which validates the
// whole datagram as it walks it, so no intermediate Value is built, and it
// allocates nothing for a ping or find_node message: TxID and Version alias
// data, and a node list is appended to m.Nodes[:0]. Only an unknown
// method's name, an error reply's message and a node list outgrowing
// m.Nodes' array are allocated. Queries for methods other than ping and
// find_node decode (with their ID) so a node can answer them with a 204
// error, but they do not marshal. On error m holds no meaningful message.
func UnmarshalInto(data []byte, m *Message) error {
	spare := m.Nodes[:0]
	*m = Message{}
	top, err := bencode.NewScanner(data)
	if err != nil || data[0] != 'd' {
		return fmt.Errorf("%w: top level is not a dict", ErrMalformed)
	}
	// Each field is nil when its key is absent or holds the wrong kind.
	var tx, y, v, q, args, resp, errBody []byte
	for top.Next() {
		key := top.Key()
		if len(key) != 1 {
			continue
		}
		switch kind := top.Kind(); {
		case kind == bencode.KindString:
			switch key[0] {
			case 't':
				tx = top.Bytes()
			case 'y':
				y = top.Bytes()
			case 'v':
				v = top.Bytes()
			case 'q':
				q = top.Bytes()
			}
		case kind == bencode.KindDict && key[0] == 'a':
			args = top.Raw()
		case kind == bencode.KindDict && key[0] == 'r':
			resp = top.Raw()
		case kind == bencode.KindList && key[0] == 'e':
			errBody = top.Raw()
		}
	}
	if err := top.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if top.Len() != len(data) {
		return fmt.Errorf("%w: %v", ErrMalformed, bencode.ErrTrailing)
	}
	if tx == nil {
		return fmt.Errorf("%w: missing transaction ID", ErrMalformed)
	}
	if len(y) != 1 {
		return fmt.Errorf("%w: missing message kind", ErrMalformed)
	}
	m.TxID, m.Kind, m.Version = tx, Kind(y[0]), v
	switch m.Kind {
	case KindQuery:
		if q == nil {
			return fmt.Errorf("%w: query without method", ErrMalformed)
		}
		m.Method = methodName(q)
		if args == nil {
			return fmt.Errorf("%w: query without args", ErrMalformed)
		}
		return m.decodeBody(args, m.Method == MethodFindNode, nil)
	case KindResponse:
		if resp == nil {
			return fmt.Errorf("%w: response without body", ErrMalformed)
		}
		if spare == nil {
			spare = []NodeInfo{} // a present node list decodes non-nil
		}
		return m.decodeBody(resp, false, spare)
	case KindError:
		s, _ := bencode.NewScanner(errBody) // validated above; nil fails Next
		if !s.Next() || s.Kind() != bencode.KindInt {
			return fmt.Errorf("%w: malformed error body", ErrMalformed)
		}
		code := s.Int()
		if !s.Next() || s.Kind() != bencode.KindString {
			return fmt.Errorf("%w: malformed error body", ErrMalformed)
		}
		m.ErrCode, m.ErrMsg = int(code), string(s.Bytes())
		return nil
	}
	return ErrBadKind
}

// methodName returns the method as a string, sharing the constants for the
// two methods the system speaks.
func methodName(q []byte) string {
	switch string(q) {
	case MethodPing:
		return MethodPing
	case MethodFindNode:
		return MethodFindNode
	}
	return string(q)
}

// decodeBody reads the "a" or "r" dictionary (already validated by the
// top-level scan): the sender's id, the find_node target when asked for,
// and, when nodeBuf is non-nil, the compact nodes appended to it.
func (m *Message) decodeBody(body []byte, wantTarget bool, nodeBuf []NodeInfo) error {
	s, _ := bencode.NewScanner(body)
	var id, target, nodes []byte
	for s.Next() {
		if s.Kind() != bencode.KindString {
			continue
		}
		switch string(s.Key()) {
		case "id":
			id = s.Bytes()
		case "nodes":
			nodes = s.Bytes()
		case "target":
			target = s.Bytes()
		}
	}
	if err := decodeID(id, "id", &m.ID); err != nil {
		return err
	}
	if wantTarget {
		if err := decodeID(target, "target", &m.Target); err != nil {
			return err
		}
	}
	if nodeBuf != nil && nodes != nil {
		if err := checkCompactNodes(nodes); err != nil {
			return err
		}
		m.Nodes = appendNodeInfos(slices.Grow(nodeBuf, len(nodes)/CompactNodeLen), nodes)
	}
	return nil
}

func decodeID(b []byte, key string, dst *NodeID) error {
	if b == nil {
		return fmt.Errorf("%w: missing %q", ErrMalformed, key)
	}
	id, err := NodeIDFromBytes(b)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	*dst = id
	return nil
}
