package fleet

import (
	"fmt"

	"github.com/reuseblock/reuseblock/internal/bencode"
	"github.com/reuseblock/reuseblock/internal/crawler"
)

// Control-plane wire protocol.
//
// Workers report to the coordinator over loopback UDP using the same
// KRPC-style bencoded dictionaries the crawler itself speaks: a query dict
// {t, y:"q", q:<method>, a:{...}} answered by a response dict {t, y:"r",
// r:{...}}. The krpc package deliberately rejects methods outside the DHT
// set (its Marshal validates against the protocol it models), so the fleet
// encodes its three methods directly with internal/bencode.
//
// Methods:
//
//	fleet_ready — sent once on worker start-up: {w: workerID, s: "I/N", pid}
//	fleet_hb    — periodic liveness + progress: counters snapshot
//	fleet_done  — final: full crawl statistics for MergeStats
//
// Transport is lossy-by-contract: heartbeats are fire-and-forget (the next
// one supersedes a lost one), while fleet_done is retried until acked since
// it carries the worker's contribution to the merged statistics.
const (
	MethodReady = "fleet_ready"
	MethodHB    = "fleet_hb"
	MethodDone  = "fleet_done"
)

// WireStats is the bencodable projection of crawler.Stats. bencode carries
// integers only, so ResponseRate — a derived ratio — is omitted and
// recomputed by MergeStats on the coordinator side.
type WireStats struct {
	GetNodesSent     int64 `bencode:"gns"`
	GetNodesReplies  int64 `bencode:"gnr"`
	PingsSent        int64 `bencode:"ps"`
	PingReplies      int64 `bencode:"pr"`
	Timeouts         int64 `bencode:"to"`
	Retries          int64 `bencode:"rt"`
	LateReplies      int64 `bencode:"lr"`
	Evicted          int64 `bencode:"ev"`
	UniqueIPs        int64 `bencode:"uip"`
	UniqueNodeIDs    int64 `bencode:"uid"`
	NATedIPs         int64 `bencode:"nat"`
	MultiPortIPs     int64 `bencode:"mp"`
	ScopeSuppressed  int64 `bencode:"ss"`
	SimultaneousMax  int64 `bencode:"sm"`
	PingRoundsRun    int64 `bencode:"prr"`
	SweepsRun        int64 `bencode:"sw"`
	MessagesSent     int64 `bencode:"ms"`
	MessagesReceived int64 `bencode:"mr"`
}

// ToWireStats projects crawler.Stats onto the wire form.
func ToWireStats(s crawler.Stats) WireStats {
	return WireStats{
		GetNodesSent:     s.GetNodesSent,
		GetNodesReplies:  s.GetNodesReplies,
		PingsSent:        s.PingsSent,
		PingReplies:      s.PingReplies,
		Timeouts:         s.Timeouts,
		Retries:          s.Retries,
		LateReplies:      s.LateReplies,
		Evicted:          s.Evicted,
		UniqueIPs:        int64(s.UniqueIPs),
		UniqueNodeIDs:    int64(s.UniqueNodeIDs),
		NATedIPs:         int64(s.NATedIPs),
		MultiPortIPs:     int64(s.MultiPortIPs),
		ScopeSuppressed:  s.ScopeSuppressed,
		SimultaneousMax:  int64(s.SimultaneousMax),
		PingRoundsRun:    int64(s.PingRoundsRun),
		SweepsRun:        int64(s.SweepsRun),
		MessagesSent:     s.MessagesSent,
		MessagesReceived: s.MessagesReceived,
	}
}

// Stats converts back to crawler.Stats. ResponseRate is recomputed from
// the counters, matching the crawler's own derivation.
func (w WireStats) Stats() crawler.Stats {
	s := crawler.Stats{
		GetNodesSent:     w.GetNodesSent,
		GetNodesReplies:  w.GetNodesReplies,
		PingsSent:        w.PingsSent,
		PingReplies:      w.PingReplies,
		Timeouts:         w.Timeouts,
		Retries:          w.Retries,
		LateReplies:      w.LateReplies,
		Evicted:          w.Evicted,
		UniqueIPs:        int(w.UniqueIPs),
		UniqueNodeIDs:    int(w.UniqueNodeIDs),
		NATedIPs:         int(w.NATedIPs),
		MultiPortIPs:     int(w.MultiPortIPs),
		ScopeSuppressed:  w.ScopeSuppressed,
		SimultaneousMax:  int(w.SimultaneousMax),
		PingRoundsRun:    int(w.PingRoundsRun),
		SweepsRun:        int(w.SweepsRun),
		MessagesSent:     w.MessagesSent,
		MessagesReceived: w.MessagesReceived,
	}
	if sent := s.PingsSent + s.GetNodesSent; sent > 0 {
		s.ResponseRate = float64(s.PingReplies+s.GetNodesReplies) / float64(sent)
	}
	return s
}

// Ready is the fleet_ready payload: the worker announces itself once its
// process is up, before world generation begins.
type Ready struct {
	Worker int    `bencode:"w"`
	Shard  string `bencode:"s"`
	PID    int    `bencode:"pid"`
}

// Heartbeat is the fleet_hb payload: a progress snapshot. Sent counters are
// cumulative, so the coordinator derives hosts/sec and staleness without
// needing every heartbeat to arrive.
type Heartbeat struct {
	Worker   int   `bencode:"w"`
	Sent     int64 `bencode:"tx"`
	Received int64 `bencode:"rx"`
	InFlight int64 `bencode:"if"`
	NATed    int64 `bencode:"nat"`
	// Done is 1 once the crawl loop has finished (the final heartbeat).
	Done int64 `bencode:"d,omitempty"`
}

// Done is the fleet_done payload: the worker's final statistics. OutFile is
// the path of the observations file the worker wrote (the coordinator reads
// shard observations from disk — addr<TAB>users files are the merge
// interface, same as every other stage boundary in this repo). The
// coordinator drops a Done whose OutFile or Shard differs from what it
// assigned the current attempt, and merges only the path it assigned.
type Done struct {
	Worker  int       `bencode:"w"`
	Shard   string    `bencode:"s"`
	OutFile string    `bencode:"f"`
	Stats   WireStats `bencode:"st"`
	// SawBootstrap is 1 when the bootstrap address answered this worker;
	// the coordinator uses it to correct the UniqueIPs union (bootstrap is
	// the partition's single deliberate overlap, counted once).
	SawBootstrap int64 `bencode:"bs,omitempty"`
	// TruePositives is the shard's oracle hit count when ground truth is
	// available (simulated runs); -1 otherwise.
	TruePositives int64 `bencode:"tp"`
}

// EncodeQuery frames a control query: method is one of the Method*
// constants, txID correlates the ack, payload is the method struct above.
func EncodeQuery(txID, method string, payload any) ([]byte, error) {
	body, err := bencode.Marshal(payload)
	if err != nil {
		return nil, err
	}
	args, err := bencode.Decode(body)
	if err != nil {
		return nil, err
	}
	return bencode.Encode(map[string]bencode.Value{
		"t": txID,
		"y": "q",
		"q": method,
		"a": args,
	})
}

// EncodeAck frames the coordinator's response to a control query.
func EncodeAck(txID string) ([]byte, error) {
	return bencode.Encode(map[string]bencode.Value{
		"t": txID,
		"y": "r",
		"r": map[string]bencode.Value{"ok": int64(1)},
	})
}

// Decoded is one parsed control-plane datagram.
type Decoded struct {
	TxID   string
	IsAck  bool
	Method string
	// Args holds the raw payload dict for queries; decode it into the
	// method struct with DecodeArgs.
	Args bencode.Value
}

// DecodeFrame parses a control-plane datagram. Unknown or malformed frames
// return an error and are dropped by callers (lossy transport contract).
func DecodeFrame(data []byte) (Decoded, error) {
	var d Decoded
	v, err := bencode.Decode(data)
	if err != nil {
		return d, err
	}
	dict, ok := v.(map[string]bencode.Value)
	if !ok {
		return d, fmt.Errorf("fleet: control frame is not a dict")
	}
	d.TxID, _ = dict["t"].(string)
	y, _ := dict["y"].(string)
	switch y {
	case "r":
		d.IsAck = true
		return d, nil
	case "q":
		d.Method, _ = dict["q"].(string)
		switch d.Method {
		case MethodReady, MethodHB, MethodDone:
		default:
			return d, fmt.Errorf("fleet: unknown control method %q", d.Method)
		}
		d.Args, ok = dict["a"].(map[string]bencode.Value)
		if !ok {
			return d, fmt.Errorf("fleet: control query %q missing args", d.Method)
		}
		return d, nil
	default:
		return d, fmt.Errorf("fleet: control frame kind %q", y)
	}
}

// DecodeArgs decodes a query's args dict into the matching payload struct.
func DecodeArgs(args bencode.Value, dst any) error {
	raw, err := bencode.Encode(args)
	if err != nil {
		return err
	}
	return bencode.Unmarshal(raw, dst)
}
