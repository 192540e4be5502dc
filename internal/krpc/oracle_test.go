package krpc

// The map-based codec below is the differential oracle for the direct one in
// krpc.go: FuzzCodecDifferential and the table tests check that both accept
// and reject the same datagrams, decode them to the same Message and encode
// the same bytes. It is the codec's previous production path, kept verbatim
// apart from the names and the byte-slice TxID and Version fields.

import (
	"fmt"

	"github.com/reuseblock/reuseblock/internal/bencode"
)

// oracleMarshal is the generic encoder the direct AppendMarshal replaced: it
// builds a bencode.Value dict and hands it to bencode.Encode.
func oracleMarshal(m *Message) ([]byte, error) {
	root := map[string]bencode.Value{
		"t": string(m.TxID),
		"y": string(m.Kind),
	}
	if len(m.Version) > 0 {
		root["v"] = string(m.Version)
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
			resp["nodes"] = string(appendCompactNodes(nil, m.Nodes))
		}
		root["r"] = resp
	case KindError:
		root["e"] = []bencode.Value{int64(m.ErrCode), m.ErrMsg}
	default:
		return nil, ErrBadKind
	}
	return bencode.Encode(root)
}

// oracleUnmarshal is the generic decoder the direct UnmarshalInto replaced: it
// decodes the datagram to a map[string]bencode.Value and reads the fields
// out of it.
func oracleUnmarshal(data []byte) (*Message, error) {
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
		m.TxID = []byte(t)
	} else {
		return nil, fmt.Errorf("%w: missing transaction ID", ErrMalformed)
	}
	y, ok := dict["y"].(string)
	if !ok || len(y) != 1 {
		return nil, fmt.Errorf("%w: missing message kind", ErrMalformed)
	}
	if v, ok := dict["v"].(string); ok {
		m.Version = []byte(v)
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
		if err := oracleDecodeID(args, "id", &m.ID); err != nil {
			return nil, err
		}
		if q == MethodFindNode {
			if err := oracleDecodeID(args, "target", &m.Target); err != nil {
				return nil, err
			}
		}
	case KindResponse:
		resp, ok := dict["r"].(map[string]bencode.Value)
		if !ok {
			return nil, fmt.Errorf("%w: response without body", ErrMalformed)
		}
		if err := oracleDecodeID(resp, "id", &m.ID); err != nil {
			return nil, err
		}
		if nodesRaw, ok := resp["nodes"].(string); ok {
			if err := checkCompactNodes([]byte(nodesRaw)); err != nil {
				return nil, err
			}
			m.Nodes = appendNodeInfos(make([]NodeInfo, 0, len(nodesRaw)/CompactNodeLen), []byte(nodesRaw))
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

func oracleDecodeID(dict map[string]bencode.Value, key string, dst *NodeID) error {
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
