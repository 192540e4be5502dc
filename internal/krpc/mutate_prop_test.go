// Mutation-robustness tests: the committed fuzz corpus under testdata/fuzz
// was discovered by running testkit.MutateBytes over valid messages and
// keeping one input per distinct decoder error site. This test keeps that
// discovery live — every mutant of every valid message must decode without
// panicking, and accepted mutants must survive the marshal round trip. It
// lives in an external test package because testkit (via core and crawler)
// imports krpc.
package krpc_test

import (
	"testing"

	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/testkit"
)

func TestUnmarshalRobustUnderMutation(t *testing.T) {
	var id krpc.NodeID
	ping, _ := krpc.NewPing([]byte("aa"), id).AppendMarshal(nil)
	fn, _ := krpc.NewFindNode([]byte("bb"), id, id).AppendMarshal(nil)
	resp, _ := krpc.NewFindNodeResponse([]byte("cc"), id, []krpc.NodeInfo{{ID: id, Addr: 1, Port: 2}}, []byte("v")).AppendMarshal(nil)
	// Unknown methods: hand-encoded get_peers and announce_peer queries.
	gp := []byte("d1:ad2:id20:" + string(id[:]) + "9:info_hash20:" + string(id[:]) + "e1:q9:get_peers1:t2:ee1:y1:qe")
	ann := []byte("d1:ad2:id20:" + string(id[:]) + "9:info_hash20:" + string(id[:]) + "4:porti6881e5:token3:toke1:q13:announce_peer1:t2:ff1:y1:qe")

	for si, seed := range [][]byte{ping, fn, resp, gp, ann} {
		for mi, m := range testkit.MutateBytes(int64(si+1), seed, 500) {
			var msg krpc.Message
			if krpc.UnmarshalInto(m, &msg) != nil {
				continue
			}
			enc, err := msg.AppendMarshal(nil)
			if err != nil {
				// Decodable-but-not-encodable is an accepted asymmetry
				// (e.g. unknown query methods).
				continue
			}
			if err := krpc.UnmarshalInto(enc, &msg); err != nil {
				t.Fatalf("seed %d mutant %d (%q): round trip failed: %v", si, mi, m, err)
			}
		}
	}
}
