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
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"

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
	out := make([]byte, 0, len(nodes)*CompactNodeLen)
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
	if len(data)%CompactNodeLen != 0 {
		return nil, fmt.Errorf("krpc: compact node data length %d not a multiple of %d", len(data), CompactNodeLen)
	}
	nodes := make([]NodeInfo, 0, len(data)/CompactNodeLen)
	for off := 0; off < len(data); off += CompactNodeLen {
		var n NodeInfo
		copy(n.ID[:], data[off:off+IDLen])
		n.Addr = iputil.AddrFrom4(data[off+IDLen], data[off+IDLen+1], data[off+IDLen+2], data[off+IDLen+3])
		n.Port = uint16(data[off+IDLen+4])<<8 | uint16(data[off+IDLen+5])
		nodes = append(nodes, n)
	}
	return nodes, nil
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
// content is meaningful depending on Kind.
type Message struct {
	TxID    string // transaction ID echoed by responses
	Kind    Kind
	Version string // optional client version ("v" key)

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

// NewPing builds a ping query — the paper's bt_ping.
func NewPing(txID string, self NodeID) *Message {
	return &Message{TxID: txID, Kind: KindQuery, Method: MethodPing, ID: self}
}

// NewFindNode builds a find_node query — the paper's get_nodes.
func NewFindNode(txID string, self, target NodeID) *Message {
	return &Message{TxID: txID, Kind: KindQuery, Method: MethodFindNode, ID: self, Target: target}
}

// NewPingResponse builds the response to a ping.
func NewPingResponse(txID string, self NodeID, version string) *Message {
	return &Message{TxID: txID, Kind: KindResponse, ID: self, Version: version}
}

// NewFindNodeResponse builds the response to a find_node carrying up to k
// neighbours.
func NewFindNodeResponse(txID string, self NodeID, nodes []NodeInfo, version string) *Message {
	return &Message{TxID: txID, Kind: KindResponse, ID: self, Nodes: nodes, Version: version}
}

// NewError builds an error reply.
func NewError(txID string, code int, msg string) *Message {
	return &Message{TxID: txID, Kind: KindError, ErrCode: code, ErrMsg: msg}
}

// Marshal encodes the message into a bencoded datagram.
func (m *Message) Marshal() ([]byte, error) {
	root := map[string]bencode.Value{
		"t": m.TxID,
		"y": string(m.Kind),
	}
	if m.Version != "" {
		root["v"] = m.Version
	}
	switch m.Kind {
	case KindQuery:
		args := map[string]bencode.Value{"id": string(m.ID[:])}
		switch m.Method {
		case MethodFindNode:
			args["target"] = string(m.Target[:])
		case MethodPing:
		default:
			return nil, fmt.Errorf("krpc: unknown method %q", m.Method)
		}
		root["q"] = m.Method
		root["a"] = args
	case KindResponse:
		resp := map[string]bencode.Value{"id": string(m.ID[:])}
		if len(m.Nodes) > 0 {
			resp["nodes"] = string(MarshalCompactNodes(m.Nodes))
		}
		root["r"] = resp
	case KindError:
		root["e"] = []bencode.Value{int64(m.ErrCode), m.ErrMsg}
	default:
		return nil, ErrBadKind
	}
	return bencode.Encode(root)
}

// Unmarshal decodes a bencoded datagram into a Message.
func Unmarshal(data []byte) (*Message, error) {
	raw, err := bencode.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	dict, ok := raw.(map[string]bencode.Value)
	if !ok {
		return nil, fmt.Errorf("%w: top level is not a dict", ErrMalformed)
	}
	m := &Message{}
	if t, ok := dict["t"].(string); ok {
		m.TxID = t
	} else {
		return nil, fmt.Errorf("%w: missing transaction ID", ErrMalformed)
	}
	y, ok := dict["y"].(string)
	if !ok || len(y) != 1 {
		return nil, fmt.Errorf("%w: missing message kind", ErrMalformed)
	}
	if v, ok := dict["v"].(string); ok {
		m.Version = v
	}
	m.Kind = Kind(y[0])
	switch m.Kind {
	case KindQuery:
		q, ok := dict["q"].(string)
		if !ok {
			return nil, fmt.Errorf("%w: query without method", ErrMalformed)
		}
		m.Method = q
		args, ok := dict["a"].(map[string]bencode.Value)
		if !ok {
			return nil, fmt.Errorf("%w: query without args", ErrMalformed)
		}
		if err := decodeID(args, "id", &m.ID); err != nil {
			return nil, err
		}
		if q == MethodFindNode {
			if err := decodeID(args, "target", &m.Target); err != nil {
				return nil, err
			}
		}
	case KindResponse:
		resp, ok := dict["r"].(map[string]bencode.Value)
		if !ok {
			return nil, fmt.Errorf("%w: response without body", ErrMalformed)
		}
		if err := decodeID(resp, "id", &m.ID); err != nil {
			return nil, err
		}
		if nodesRaw, ok := resp["nodes"].(string); ok {
			nodes, err := UnmarshalCompactNodes([]byte(nodesRaw))
			if err != nil {
				return nil, err
			}
			m.Nodes = nodes
		}
	case KindError:
		e, ok := dict["e"].([]bencode.Value)
		if !ok || len(e) < 2 {
			return nil, fmt.Errorf("%w: malformed error body", ErrMalformed)
		}
		code, ok1 := e[0].(int64)
		msg, ok2 := e[1].(string)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("%w: malformed error body", ErrMalformed)
		}
		m.ErrCode, m.ErrMsg = int(code), msg
	default:
		return nil, ErrBadKind
	}
	return m, nil
}

func decodeID(dict map[string]bencode.Value, key string, dst *NodeID) error {
	s, ok := dict[key].(string)
	if !ok {
		return fmt.Errorf("%w: missing %q", ErrMalformed, key)
	}
	id, err := NodeIDFromBytes([]byte(s))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	*dst = id
	return nil
}
