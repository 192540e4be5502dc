package dht

import (
	"encoding/binary"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

// rawPeer is a bare socket that records the queries it hears and answers
// only when the test tells it to, in whatever order the test picks.
type rawPeer struct {
	sock    netsim.Socket
	from    netsim.Endpoint
	queries []*krpc.Message
}

func newRawPeer(t *testing.T, w *simWorld, addr string) *rawPeer {
	t.Helper()
	sock, err := w.net.Listen(netsim.Endpoint{Addr: iputil.MustParseAddr(addr), Port: 6881})
	if err != nil {
		t.Fatal(err)
	}
	p := &rawPeer{sock: sock}
	sock.SetHandler(func(from netsim.Endpoint, payload []byte) {
		m := new(krpc.Message)
		if err := krpc.UnmarshalInto(payload, m); err != nil || m.Kind != krpc.KindQuery {
			t.Errorf("peer heard %q", payload)
			return
		}
		p.from = from
		p.queries = append(p.queries, m)
	})
	return p
}

func (p *rawPeer) endpoint() netsim.Endpoint {
	ep, _ := p.sock.PublicEndpoint()
	return ep
}

// replyID is the ID of the node answering query i: it starts with byte i.
func replyID(i int) krpc.NodeID {
	var id krpc.NodeID
	id[0], id[19] = byte(i), 1
	return id
}

// reply answers query i with a pong from replyID(i).
func (p *rawPeer) reply(t *testing.T, i int) {
	t.Helper()
	data, err := krpc.NewPingResponse(p.queries[i].TxID, replyID(i), nil).AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	p.sock.Send(p.from, data)
}

// txOf returns query i's transaction ID as the pending set keys it.
func (p *rawPeer) txOf(i int) uint32 { return binary.BigEndian.Uint32(p.queries[i].TxID) }

// learned reports whether n's routing table holds id.
func learned(n *Node, id krpc.NodeID) bool {
	got := n.Closest(id, 1)
	return len(got) == 1 && got[0].ID == id
}

// TestPendingOutOfOrderReplies keeps several pings in flight, so all but
// the first spill, and answers them out of order: each reply resolves its
// own query, once, and adds its responder to the table.
func TestPendingOutOfOrderReplies(t *testing.T) {
	w := newSimWorld(t)
	a := w.newNode(t, "10.0.0.1", 6881, 1)
	peer := newRawPeer(t, w, "10.0.0.2")
	const queries = 5
	for i := 0; i < queries; i++ {
		a.Ping(peer.endpoint())
	}
	if len(a.pending.spill) != queries-1 {
		t.Fatalf("%d queries spilled, want %d", len(a.pending.spill), queries-1)
	}
	w.clock.RunFor(100 * time.Millisecond)
	if len(peer.queries) != queries {
		t.Fatalf("peer heard %d queries, want %d", len(peer.queries), queries)
	}
	answered := map[int]bool{}
	for _, i := range []int{3, 0, 4, 1, 2} {
		peer.reply(t, i)
		w.clock.RunFor(100 * time.Millisecond)
		answered[i] = true
		for k := 0; k < queries; k++ {
			if pending := a.pending.find(peer.txOf(k)) != nil; pending == answered[k] {
				t.Fatalf("after reply %d: query %d pending=%v", i, k, pending)
			}
		}
		if !learned(a, replyID(i)) {
			t.Fatalf("after reply %d: responder %x not in the table", i, replyID(i))
		}
		if got := a.Stats().ResponsesReceived; got != int64(len(answered)) {
			t.Fatalf("after reply %d: %d responses counted, want %d", i, got, len(answered))
		}
	}
	w.clock.RunFor(time.Minute) // every timeout would have fired by now
	if s := a.Stats(); s.ResponsesReceived != queries || s.Timeouts != 0 {
		t.Errorf("stats %+v, want %d responses and no timeouts", s, queries)
	}
	if a.pending.first.live || len(a.pending.spill) != 0 {
		t.Errorf("answered queries still pending: %+v", a.pending)
	}
}

// TestPendingLateReplyAfterTimeout answers pings after their timeouts
// fired: each counted one timeout, and the late replies change nothing.
func TestPendingLateReplyAfterTimeout(t *testing.T) {
	w := newSimWorld(t)
	a := w.newNode(t, "10.0.0.1", 6881, 1)
	peer := newRawPeer(t, w, "10.0.0.2")
	a.Ping(peer.endpoint())
	a.Ping(peer.endpoint()) // spilled
	w.clock.RunFor(time.Minute)
	if s := a.Stats(); s.Timeouts != 2 || inFlight(a) != 0 {
		t.Fatalf("stats %+v with %d pending; want two timeouts and none pending", s, inFlight(a))
	}
	peer.reply(t, 1)
	peer.reply(t, 0)
	w.clock.RunFor(time.Minute)
	if s := a.Stats(); s.ResponsesReceived != 0 || s.Timeouts != 2 {
		t.Errorf("stats %+v, want 2 timeouts and no responses", s)
	}
	if a.TableSize() != 0 {
		t.Errorf("late replies added %d responders to the table", a.TableSize())
	}
}

// TestCloseStopsSpilledTimeouts closes a node with queries in flight
// inline and in the spill slice: every timeout leaves the clock, and none
// is counted.
func TestCloseStopsSpilledTimeouts(t *testing.T) {
	w := newSimWorld(t)
	a := w.newNode(t, "10.0.0.1", 6881, 1)
	silent := netsim.Endpoint{Addr: iputil.MustParseAddr("10.9.9.9"), Port: 1}
	before := w.clock.Pending()
	for i := 0; i < 4; i++ {
		a.Ping(silent)
	}
	w.clock.RunFor(100 * time.Millisecond) // the pings land; only their timeouts stay queued
	if got := w.clock.Pending() - before; got != 4 {
		t.Fatalf("%d events queued for 4 pings in flight, want 4 timeouts", got)
	}
	a.Close()
	if got := w.clock.Pending(); got != before {
		t.Errorf("%d events queued after Close, want %d: a timeout was not stopped", got, before)
	}
	w.clock.Drain(0)
	if s := a.Stats(); s.Timeouts != 0 {
		t.Errorf("%d timeouts counted after Close", s.Timeouts)
	}
}

// TestNewTxSkipsInFlightID puts the node's next transaction ID draw in its
// pending set: the next Ping must use another ID, and both the planted
// query and the Ping resolve once each, the Ping by its reply and the
// planted query by its own timeout.
func TestNewTxSkipsInFlightID(t *testing.T) {
	w := newSimWorld(t)
	a := w.newNode(t, "10.0.0.1", 6881, 1)
	peer := newRawPeer(t, w, "10.0.0.2")
	next := a.rng // a copy: drawing from it leaves the node's generator alone
	taken := next.Uint32()
	a.pending.add(pendingQuery{
		tx:      taken,
		timeout: a.clock.AfterEvent(queryTimeout, (*nodeTimers)(a), uint64(taken)),
	})
	a.Ping(peer.endpoint())
	w.clock.RunFor(100 * time.Millisecond)
	if len(peer.queries) != 1 {
		t.Fatalf("peer heard %d queries, want 1", len(peer.queries))
	}
	if got := peer.txOf(0); got == taken {
		t.Fatalf("Ping reused in-flight transaction ID %08x", got)
	}
	peer.reply(t, 0)
	w.clock.RunFor(100 * time.Millisecond)
	if a.pending.find(peer.txOf(0)) != nil || a.pending.find(taken) == nil {
		t.Fatal("the reply resolved the wrong query")
	}
	w.clock.RunFor(time.Minute)
	if s := a.Stats(); s.ResponsesReceived != 1 || s.Timeouts != 1 || inFlight(a) != 0 {
		t.Errorf("stats %+v with %d pending; want the ping answered and the planted query timed out", s, inFlight(a))
	}
}
