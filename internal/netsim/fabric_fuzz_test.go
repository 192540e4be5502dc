package netsim

import (
	"fmt"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

// fabric is what FuzzFabric drives on both implementations.
type fabric interface {
	Listen(Endpoint) (Socket, error)
	Bound(Endpoint) bool
	Stats() Stats
	newNAT(NATConfig) (gateway, error)
}

type gateway interface {
	Listen(privateAddr iputil.Addr, privatePort uint16) (Socket, error)
	ActiveMappings() int
}

type networkFabric struct{ *Network }

func (n networkFabric) newNAT(cfg NATConfig) (gateway, error) { return NewNAT(n.Network, cfg) }

func (n *oracleNetwork) newNAT(cfg NATConfig) (gateway, error) { return newOracleNAT(n, cfg) }

// fabricSide is one implementation under FuzzFabric with everything it has
// bound, in creation order, and the log of what its handlers and tracer saw
// since the last comparison.
type fabricSide struct {
	clock *Clock
	net   fabric
	nats  []gateway
	socks []Socket
	log   []string
}

var (
	fuzzPublic  = []iputil.Addr{iputil.MustParseAddr("10.0.0.1"), iputil.MustParseAddr("10.0.0.2"), iputil.MustParseAddr("10.0.0.3"), iputil.MustParseAddr("10.0.0.4")}
	fuzzPrivate = []iputil.Addr{iputil.MustParseAddr("192.168.0.1"), iputil.MustParseAddr("192.168.0.2")}
	fuzzPorts   = []uint16{1, 2, 1024, 1025, 65534, 65535}
	// fuzzSteps include exactly the mapping TTL, so a mapping is probed on
	// the instant it would expire, and steps past it.
	fuzzSteps = []time.Duration{time.Millisecond, 30 * time.Millisecond, fuzzTTL, fuzzTTL + time.Second, 10 * time.Minute}
)

const fuzzTTL = time.Minute

// config is the fabric both sides run: loss, jitter, a tracer into the
// side's log and a fault hook that drops payloads starting 0xFF and strips
// the first byte of those starting 0xFE.
func (sd *fabricSide) config(loss float64, seed int64) Config {
	return Config{
		Loss:          loss,
		LatencyBase:   10 * time.Millisecond,
		LatencyJitter: 5 * time.Millisecond,
		Seed:          seed,
		Trace: func(ev TraceEvent) {
			sd.log = append(sd.log, fmt.Sprintf("trace %c %v %v>%v %d", ev.Kind, ev.At.Sub(Epoch), ev.From, ev.To, ev.Size))
		},
		Faults: func() FaultHook {
			return func(d Datagram) []byte {
				switch p := d.Payload; {
				case len(p) > 0 && p[0] == 0xFF:
					return nil
				case len(p) > 0 && p[0] == 0xFE:
					return p[1:]
				}
				return d.Payload
			}
		},
	}
}

// handler logs each delivery to socket i and echoes payloads whose first
// byte is odd back to the sender without that byte, so replies cross NATs
// from inside the event loop.
func (sd *fabricSide) handler(i int) Handler {
	return func(from Endpoint, p []byte) {
		sd.log = append(sd.log, fmt.Sprintf("recv %d %v %q", i, from, p))
		if len(p) > 0 && p[0]&1 == 1 {
			sd.socks[i].Send(from, p[1:])
		}
	}
}

func (sd *fabricSide) bind(s Socket, err error, withHandler bool) bool {
	if err != nil {
		return false
	}
	if withHandler {
		s.SetHandler(sd.handler(len(sd.socks)))
	}
	sd.socks = append(sd.socks, s)
	return true
}

// FuzzFabric decodes a sequence of Listen, Close, NewNAT, NAT.Listen, Send
// and clock steps (some past the mapping TTL) and runs it on Network and on
// the map-based oracle. The two must agree on every handler call and trace
// event, in order, and on Stats, PublicEndpoint, Bound and ActiveMappings
// after every operation.
func FuzzFabric(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 0, 1, 1, 4, 0, 1, 3, 1, 0x41, 5, 0})
	// A NAT at 10.0.0.2 with two internal sockets pinging 10.0.0.1:2, which
	// echoes; then steps past the TTL and a rebind of the direct address.
	f.Add([]byte{0, 0, 1, 0, 2, 1, 0, 3, 0, 0, 3, 0, 2, 4, 1, 1, 3, 7, 9, 4, 2, 1, 2, 3, 5, 5, 1, 4, 1, 0x80, 2, 1, 3, 5, 2, 4, 2, 1, 1, 1, 1, 0, 0, 0, 0, 5, 3})
	// An address-restricted NAT with ports 65534-65535 only: mappings wrap
	// and the third socket finds the port space exhausted.
	f.Add([]byte{1, 7, 2, 13, 3, 0, 0, 3, 0, 1, 3, 0, 2, 0, 0, 1, 4, 0, 1, 1, 9, 4, 1, 1, 1, 9, 4, 2, 1, 1, 9, 5, 1, 4, 3, 0x80, 1, 7, 5, 2, 4, 0, 0x81, 1, 3, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		loss := float64(data[0]%4) / 10
		seed := int64(data[1])
		data = data[2:]

		sides := [2]*fabricSide{{clock: NewClock()}, {clock: NewClock()}}
		net, err := NewNetwork(sides[0].clock, sides[0].config(loss, seed))
		if err != nil {
			t.Fatal(err)
		}
		sides[0].net = networkFabric{net}
		sides[1].net = newOracleNetwork(sides[1].clock, sides[1].config(loss, seed))

		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		for op := 0; len(data) > 0 && op < 256; op++ {
			switch next() % 6 {
			case 0: // Listen on a public endpoint
				b := next()
				e := Endpoint{fuzzPublic[b%4], fuzzPorts[(b>>2)%6]}
				s0, err0 := sides[0].net.Listen(e)
				s1, err1 := sides[1].net.Listen(e)
				if sides[0].bind(s0, err0, b&0x80 == 0) != sides[1].bind(s1, err1, b&0x80 == 0) {
					t.Fatalf("op %d: Listen(%v) errors differ: %v vs oracle %v", op, e, err0, err1)
				}
			case 1: // Close
				b := int(next())
				if len(sides[0].socks) > 0 {
					i := b % len(sides[0].socks)
					sides[0].socks[i].Close()
					sides[1].socks[i].Close()
				}
			case 2: // NewNAT
				b := next()
				cfg := NATConfig{PublicAddr: fuzzPublic[b%4], Filtering: Filtering(b >> 2 & 1), MappingTTL: fuzzTTL}
				if b>>3&1 == 1 {
					cfg.FirstPort = 65534
				}
				var ok [2]bool
				var errs [2]error
				for k, sd := range sides {
					g, err := sd.net.newNAT(cfg)
					if errs[k] = err; err == nil {
						sd.nats = append(sd.nats, g)
						ok[k] = true
					}
				}
				if ok[0] != ok[1] {
					t.Fatalf("op %d: NewNAT(%+v) errors differ: %v vs oracle %v", op, cfg, errs[0], errs[1])
				}
			case 3: // NAT.Listen
				b, c := int(next()), next()
				if len(sides[0].nats) > 0 {
					i := b % len(sides[0].nats)
					addr, port := fuzzPrivate[c%2], uint16(c>>1%2+1)
					s0, err0 := sides[0].nats[i].Listen(addr, port)
					s1, err1 := sides[1].nats[i].Listen(addr, port)
					if sides[0].bind(s0, err0, c&0x80 == 0) != sides[1].bind(s1, err1, c&0x80 == 0) {
						t.Fatalf("op %d: NAT.Listen(%v:%d) errors differ: %v vs oracle %v", op, addr, port, err0, err1)
					}
				}
			case 4: // Send to a universe endpoint or to a socket's public endpoint
				b, c, size := int(next()), next(), int(next()%4)
				payload := make([]byte, 0, size)
				for range size {
					payload = append(payload, next())
				}
				if len(sides[0].socks) > 0 {
					i := b % len(sides[0].socks)
					for _, sd := range sides {
						to := Endpoint{fuzzPublic[c%4], fuzzPorts[(c>>2)%6]}
						if c&0x80 != 0 {
							if pub, ok := sd.socks[int(c)%len(sd.socks)].PublicEndpoint(); ok {
								to = pub
							}
						}
						sd.socks[i].Send(to, payload)
					}
				}
			case 5: // step the clocks
				d := fuzzSteps[int(next())%len(fuzzSteps)]
				for _, sd := range sides {
					sd.clock.RunFor(d)
				}
			}
			compareFabrics(t, op, sides)
		}
		for _, sd := range sides {
			sd.clock.RunFor(time.Hour)
		}
		compareFabrics(t, -1, sides)
	})
}

func compareFabrics(t *testing.T, op int, sides [2]*fabricSide) {
	t.Helper()
	got, want := sides[0], sides[1]
	if len(got.log) != len(want.log) {
		t.Fatalf("op %d: %d log lines vs oracle %d\nnetwork: %q\noracle:  %q", op, len(got.log), len(want.log), got.log, want.log)
	}
	for i := range got.log {
		if got.log[i] != want.log[i] {
			t.Fatalf("op %d: log line %d is %q, oracle %q", op, i, got.log[i], want.log[i])
		}
	}
	got.log, want.log = got.log[:0], want.log[:0]
	if g, w := got.net.Stats(), want.net.Stats(); g != w {
		t.Fatalf("op %d: Stats %+v, oracle %+v", op, g, w)
	}
	for i := range got.socks {
		g, gok := got.socks[i].PublicEndpoint()
		w, wok := want.socks[i].PublicEndpoint()
		if g != w || gok != wok {
			t.Fatalf("op %d: socket %d PublicEndpoint %v,%v, oracle %v,%v", op, i, g, gok, w, wok)
		}
	}
	for i := range got.nats {
		if g, w := got.nats[i].ActiveMappings(), want.nats[i].ActiveMappings(); g != w {
			t.Fatalf("op %d: NAT %d ActiveMappings %d, oracle %d", op, i, g, w)
		}
	}
	for _, a := range fuzzPublic {
		for _, p := range fuzzPorts {
			e := Endpoint{a, p}
			if g, w := got.net.Bound(e), want.net.Bound(e); g != w {
				t.Fatalf("op %d: Bound(%v) %v, oracle %v", op, e, g, w)
			}
		}
	}
}
