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
		m, err := krpc.Unmarshal(payload)
		if err != nil || m.Kind != krpc.KindQuery {
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

// reply answers query i with a pong whose ID starts with byte i.
func (p *rawPeer) reply(t *testing.T, i int) {
	t.Helper()
	var id krpc.NodeID
	id[0], id[19] = byte(i), 1
	data, err := krpc.NewPingResponse(p.queries[i].TxID, id, nil).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	p.sock.Send(p.from, data)
}

// callbackLog counts each query's callback calls and keeps the last result.
type callbackLog struct {
	calls []int
	msgs  []*krpc.Message
	errs  []error
}

func (l *callbackLog) callback() func(*krpc.Message, error) {
	i := len(l.calls)
	l.calls, l.msgs, l.errs = append(l.calls, 0), append(l.msgs, nil), append(l.errs, nil)
	return func(m *krpc.Message, err error) {
		l.calls[i]++
		l.msgs[i], l.errs[i] = m, err
	}
}

// TestPendingOutOfOrderReplies keeps several queries in flight, so all but
// the first spill, and answers them out of order: each reply reaches its
// own callback, once.
func TestPendingOutOfOrderReplies(t *testing.T) {
	w := newSimWorld(t)
	a := w.newNode(t, "10.0.0.1", 6881, 1)
	peer := newRawPeer(t, w, "10.0.0.2")
	var log callbackLog
	const queries = 5
	for i := 0; i < queries; i++ {
		if i%2 == 0 {
			a.Ping(peer.endpoint(), log.callback())
		} else {
			a.FindNode(peer.endpoint(), a.ID(), log.callback())
		}
	}
	if len(a.pending.spill) != queries-1 {
		t.Fatalf("%d queries spilled, want %d", len(a.pending.spill), queries-1)
	}
	w.clock.RunFor(100 * time.Millisecond)
	if len(peer.queries) != queries {
		t.Fatalf("peer heard %d queries, want %d", len(peer.queries), queries)
	}
	for _, i := range []int{3, 0, 4, 1, 2} {
		peer.reply(t, i)
		w.clock.RunFor(100 * time.Millisecond)
		if log.calls[i] != 1 || log.errs[i] != nil || log.msgs[i] == nil || log.msgs[i].ID[0] != byte(i) {
			t.Fatalf("after reply %d: callback ran %d times with %+v, %v", i, log.calls[i], log.msgs[i], log.errs[i])
		}
	}
	w.clock.RunFor(time.Minute) // every timeout would have fired by now
	for i, n := range log.calls {
		if n != 1 {
			t.Errorf("query %d's callback ran %d times", i, n)
		}
	}
	if s := a.Stats(); s.ResponsesReceived != queries || s.Timeouts != 0 {
		t.Errorf("stats %+v, want %d responses and no timeouts", s, queries)
	}
	if a.pending.first.live || len(a.pending.spill) != 0 {
		t.Errorf("answered queries still pending: %+v", a.pending)
	}
}

// TestPendingLateReplyAfterTimeout answers a query after its timeout fired:
// the callback has run once, with ErrTimeout, and the late reply changes
// nothing.
func TestPendingLateReplyAfterTimeout(t *testing.T) {
	w := newSimWorld(t)
	a := w.newNode(t, "10.0.0.1", 6881, 1)
	peer := newRawPeer(t, w, "10.0.0.2")
	var log callbackLog
	a.Ping(peer.endpoint(), log.callback())
	a.Ping(peer.endpoint(), log.callback()) // spilled
	w.clock.RunFor(time.Minute)
	for i := range log.calls {
		if log.calls[i] != 1 || log.errs[i] != ErrTimeout {
			t.Fatalf("query %d: callback ran %d times, last error %v; want one timeout", i, log.calls[i], log.errs[i])
		}
	}
	peer.reply(t, 1)
	peer.reply(t, 0)
	w.clock.RunFor(time.Minute)
	for i := range log.calls {
		if log.calls[i] != 1 {
			t.Errorf("query %d's callback ran %d times after a late reply", i, log.calls[i])
		}
	}
	if s := a.Stats(); s.ResponsesReceived != 0 || s.Timeouts != 2 {
		t.Errorf("stats %+v, want 2 timeouts and no responses", s)
	}
}

// TestCloseStopsSpilledTimeouts closes a node with queries in flight
// inline and in the spill slice: every timeout leaves the clock, and no
// callback runs.
func TestCloseStopsSpilledTimeouts(t *testing.T) {
	w := newSimWorld(t)
	a := w.newNode(t, "10.0.0.1", 6881, 1)
	silent := netsim.Endpoint{Addr: iputil.MustParseAddr("10.9.9.9"), Port: 1}
	before := w.clock.Pending()
	var log callbackLog
	for i := 0; i < 4; i++ {
		a.Ping(silent, log.callback())
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
	for i, n := range log.calls {
		if n != 0 {
			t.Errorf("query %d's callback ran %d times after Close", i, n)
		}
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
	var log callbackLog
	a.pending.add(pendingQuery{
		tx:      taken,
		done:    log.callback(),
		timeout: a.clock.AfterEvent(a.cfg.QueryTimeout, (*nodeTimers)(a), uint64(taken)),
	})
	a.Ping(peer.endpoint(), log.callback())
	w.clock.RunFor(100 * time.Millisecond)
	if len(peer.queries) != 1 {
		t.Fatalf("peer heard %d queries, want 1", len(peer.queries))
	}
	if got := binary.BigEndian.Uint32(peer.queries[0].TxID); got == taken {
		t.Fatalf("Ping reused in-flight transaction ID %08x", got)
	}
	peer.reply(t, 0)
	w.clock.RunFor(time.Minute)
	if log.calls[0] != 1 || log.errs[0] != ErrTimeout {
		t.Errorf("planted query: callback ran %d times, last error %v; want one timeout", log.calls[0], log.errs[0])
	}
	if log.calls[1] != 1 || log.errs[1] != nil || log.msgs[1] == nil {
		t.Errorf("ping: callback ran %d times with %+v, %v; want one reply", log.calls[1], log.msgs[1], log.errs[1])
	}
}
