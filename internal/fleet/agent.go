package fleet

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reuseblock/reuseblock/internal/dht"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

// ParseControlAddr parses a coordinator control address ("HOST:PORT", IPv4)
// into the endpoint form the control socket sends to.
func ParseControlAddr(s string) (netsim.Endpoint, error) {
	host, portStr, err := net.SplitHostPort(s)
	if err != nil {
		return netsim.Endpoint{}, fmt.Errorf("invalid control address %q: %v", s, err)
	}
	addr, err := iputil.ParseAddr(host)
	if err != nil {
		return netsim.Endpoint{}, fmt.Errorf("invalid control address %q: %v", s, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port < 1 || port > 65535 {
		return netsim.Endpoint{}, fmt.Errorf("invalid control address %q: bad port", s)
	}
	return netsim.Endpoint{Addr: addr, Port: uint16(port)}, nil
}

// Agent is the worker side of the fleet control plane. It owns a loopback
// UDP socket, announces the worker with fleet_ready, streams fleet_hb
// progress heartbeats from a wall-clock ticker, and delivers the final
// fleet_done with retry-until-ack.
//
// The crawl itself is single-threaded on the simulation loop; the agent
// decouples it from wall time by reading atomically published Snapshots, so
// heartbeat cadence never perturbs the deterministic crawl.
type Agent struct {
	mu     sync.Mutex
	sock   *dht.RealSocket
	coord  netsim.Endpoint
	worker int
	shard  ShardSpec

	snap  atomic.Value // Snapshot
	txSeq atomic.Int64
	acks  map[string]chan struct{} // guarded by mu

	hbStop chan struct{}
	hbOnce sync.Once
	wg     sync.WaitGroup
}

// ackAttempts / ackInterval govern retry-until-ack sends (ready and done).
const (
	ackAttempts = 5
	ackInterval = 200 * time.Millisecond
)

// DialAgent connects a worker to the coordinator at coordAddr and announces
// it with fleet_ready (retried until acked). hbInterval <= 0 disables the
// heartbeat ticker (ready/done still flow).
func DialAgent(coordAddr string, worker int, shard ShardSpec, hbInterval time.Duration) (*Agent, error) {
	coord, err := ParseControlAddr(coordAddr)
	if err != nil {
		return nil, err
	}
	a := &Agent{
		coord:  coord,
		worker: worker,
		shard:  shard,
		acks:   make(map[string]chan struct{}),
		hbStop: make(chan struct{}),
	}
	a.snap.Store(Snapshot{})
	sock, _, err := dht.ListenLoopback(&a.mu)
	if err != nil {
		return nil, err
	}
	a.sock = sock
	a.mu.Lock()
	sock.SetHandler(a.handle)
	a.mu.Unlock()

	if err := a.sendAcked(MethodReady, &Ready{Worker: worker, Shard: shard.String(), PID: os.Getpid()}); err != nil {
		a.Close()
		return nil, err
	}
	if hbInterval > 0 {
		a.wg.Add(1)
		go a.heartbeatLoop(hbInterval)
	}
	return a, nil
}

// handle processes coordinator datagrams; only acks flow this way. It runs
// under a.mu (RealSocket contract).
func (a *Agent) handle(_ netsim.Endpoint, payload []byte) {
	d, err := DecodeFrame(payload)
	if err != nil || !d.IsAck {
		return
	}
	if ch, ok := a.acks[d.TxID]; ok {
		delete(a.acks, d.TxID)
		close(ch)
	}
}

// Publish records the crawl's latest progress snapshot for the heartbeat
// ticker. Safe to call from the simulation loop; never blocks.
func (a *Agent) Publish(s Snapshot) { a.snap.Store(s) }

func (a *Agent) nextTx() string {
	return fmt.Sprintf("w%d-%d", a.worker, a.txSeq.Add(1))
}

// send fires one control query without waiting for an ack.
func (a *Agent) send(method string, payload Payload) error {
	frame, err := EncodeQuery(a.nextTx(), method, payload)
	if err != nil {
		return err
	}
	a.sock.Send(a.coord, frame)
	return nil
}

// sendAcked sends a control query and waits for the coordinator's ack,
// retrying a few times; the control plane is loopback UDP, so persistent
// loss means the coordinator is gone and the worker reports the failure.
func (a *Agent) sendAcked(method string, payload Payload) error {
	tx := a.nextTx()
	frame, err := EncodeQuery(tx, method, payload)
	if err != nil {
		return err
	}
	ch := make(chan struct{})
	a.mu.Lock()
	a.acks[tx] = ch
	a.mu.Unlock()
	for attempt := 0; attempt < ackAttempts; attempt++ {
		a.sock.Send(a.coord, frame)
		select {
		case <-ch:
			return nil
		case <-time.After(ackInterval):
		}
	}
	a.mu.Lock()
	delete(a.acks, tx)
	a.mu.Unlock()
	return fmt.Errorf("fleet: %s to %s unacked after %d attempts", method, a.coord, ackAttempts)
}

func (a *Agent) heartbeatLoop(interval time.Duration) {
	defer a.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-a.hbStop:
			return
		case <-t.C:
			s := a.snap.Load().(Snapshot)
			hb := Heartbeat{
				Worker:   a.worker,
				Sent:     s.Sent,
				Received: s.Received,
				InFlight: s.InFlight,
				NATed:    s.NATed,
			}
			if s.Done {
				hb.Done = 1
			}
			_ = a.send(MethodHB, &hb) // fire-and-forget: the next one supersedes it
		}
	}
}

// Done stops the heartbeat ticker and delivers the worker's final report,
// retrying until the coordinator acknowledges it.
func (a *Agent) Done(d Done) error {
	a.stopHB()
	d.Worker = a.worker
	d.Shard = a.shard.String()
	return a.sendAcked(MethodDone, &d)
}

func (a *Agent) stopHB() {
	a.hbOnce.Do(func() { close(a.hbStop) })
	a.wg.Wait()
}

// Close releases the control socket (stopping heartbeats first).
func (a *Agent) Close() {
	a.stopHB()
	a.mu.Lock()
	a.sock.Close()
	a.mu.Unlock()
	a.sock.Wait()
}
