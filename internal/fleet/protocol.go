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
// r:{...}}. The krpc package deliberately rejects methods outside ping and
// find_node (its Marshal validates against the protocol it models), so the
// fleet frames its three methods itself: each payload struct lists its
// args-dict keys in a fields table, which builds and reads bencode.Value
// dicts directly.
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
	GetNodesSent     int64
	GetNodesReplies  int64
	PingsSent        int64
	PingReplies      int64
	Timeouts         int64
	Retries          int64
	LateReplies      int64
	Evicted          int64
	UniqueIPs        int64
	UniqueNodeIDs    int64
	NATedIPs         int64
	MultiPortIPs     int64
	ScopeSuppressed  int64
	SimultaneousMax  int64
	PingRoundsRun    int64
	SweepsRun        int64
	MessagesSent     int64
	MessagesReceived int64
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
	Worker int
	Shard  string
	PID    int
}

// Heartbeat is the fleet_hb payload: a progress snapshot. Sent counters are
// cumulative, so the coordinator derives hosts/sec and staleness without
// needing every heartbeat to arrive.
type Heartbeat struct {
	Worker   int
	Sent     int64
	Received int64
	InFlight int64
	NATed    int64
	// Done is 1 once the crawl loop has finished (the final heartbeat).
	Done int64
}

// Done is the fleet_done payload: the worker's final statistics. OutFile is
// the path of the observations file the worker wrote (the coordinator reads
// shard observations from disk — addr<TAB>users files are the merge
// interface, same as every other stage boundary in this repo). The
// coordinator drops a Done whose OutFile or Shard differs from what it
// assigned the current attempt, and merges only the path it assigned.
type Done struct {
	Worker  int
	Shard   string
	OutFile string
	Stats   WireStats
	// SawBootstrap is 1 when the bootstrap address answered this worker;
	// the coordinator uses it to correct the UniqueIPs union (bootstrap is
	// the partition's single deliberate overlap, counted once).
	SawBootstrap int64
	// TruePositives is the shard's oracle hit count when ground truth is
	// available (simulated runs); -1 otherwise.
	TruePositives int64
}

// Payload is the args dict of a control query: *Ready, *Heartbeat or *Done.
type Payload interface {
	fields() []field
}

// field binds one args-dict key to a payload field; exactly one of the
// pointers is set. omitEmpty leaves a zero int64 off the wire.
type field struct {
	key       string
	num       *int
	num64     *int64
	str       *string
	stats     *WireStats
	omitEmpty bool
}

func (r *Ready) fields() []field {
	return []field{
		{key: "w", num: &r.Worker},
		{key: "s", str: &r.Shard},
		{key: "pid", num: &r.PID},
	}
}

func (h *Heartbeat) fields() []field {
	return []field{
		{key: "w", num: &h.Worker},
		{key: "tx", num64: &h.Sent},
		{key: "rx", num64: &h.Received},
		{key: "if", num64: &h.InFlight},
		{key: "nat", num64: &h.NATed},
		{key: "d", num64: &h.Done, omitEmpty: true},
	}
}

func (d *Done) fields() []field {
	return []field{
		{key: "w", num: &d.Worker},
		{key: "s", str: &d.Shard},
		{key: "f", str: &d.OutFile},
		{key: "st", stats: &d.Stats},
		{key: "bs", num64: &d.SawBootstrap, omitEmpty: true},
		{key: "tp", num64: &d.TruePositives},
	}
}

func (w *WireStats) fields() []field {
	return []field{
		{key: "gns", num64: &w.GetNodesSent},
		{key: "gnr", num64: &w.GetNodesReplies},
		{key: "ps", num64: &w.PingsSent},
		{key: "pr", num64: &w.PingReplies},
		{key: "to", num64: &w.Timeouts},
		{key: "rt", num64: &w.Retries},
		{key: "lr", num64: &w.LateReplies},
		{key: "ev", num64: &w.Evicted},
		{key: "uip", num64: &w.UniqueIPs},
		{key: "uid", num64: &w.UniqueNodeIDs},
		{key: "nat", num64: &w.NATedIPs},
		{key: "mp", num64: &w.MultiPortIPs},
		{key: "ss", num64: &w.ScopeSuppressed},
		{key: "sm", num64: &w.SimultaneousMax},
		{key: "prr", num64: &w.PingRoundsRun},
		{key: "sw", num64: &w.SweepsRun},
		{key: "ms", num64: &w.MessagesSent},
		{key: "mr", num64: &w.MessagesReceived},
	}
}

// toDict renders a payload as its args dict.
func toDict(p Payload) map[string]bencode.Value {
	dict := make(map[string]bencode.Value)
	for _, f := range p.fields() {
		switch {
		case f.num != nil:
			dict[f.key] = int64(*f.num)
		case f.num64 != nil:
			if f.omitEmpty && *f.num64 == 0 {
				continue
			}
			dict[f.key] = *f.num64
		case f.str != nil:
			dict[f.key] = *f.str
		case f.stats != nil:
			dict[f.key] = toDict(f.stats)
		}
	}
	return dict
}

// EncodeQuery frames a control query: method is one of the Method*
// constants, txID correlates the ack, payload is the method's struct.
func EncodeQuery(txID, method string, payload Payload) ([]byte, error) {
	return bencode.Encode(map[string]bencode.Value{
		"t": txID,
		"y": "q",
		"q": method,
		"a": toDict(payload),
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

// DecodeArgs decodes a query's args dict into the matching payload struct:
// a missing key leaves its field at zero, an unknown key is ignored and a
// value of the wrong type is an error.
func DecodeArgs(args bencode.Value, dst Payload) error {
	dict, ok := args.(map[string]bencode.Value)
	if !ok {
		return fmt.Errorf("fleet: args are %T, not a dict", args)
	}
	for _, f := range dst.fields() {
		e, present := dict[f.key]
		if !present {
			continue
		}
		switch {
		case f.num != nil:
			var n int64
			n, ok = e.(int64)
			*f.num = int(n)
		case f.num64 != nil:
			*f.num64, ok = e.(int64)
		case f.str != nil:
			*f.str, ok = e.(string)
		case f.stats != nil:
			if err := DecodeArgs(e, f.stats); err != nil {
				return fmt.Errorf("fleet: key %q: %w", f.key, err)
			}
			ok = true
		}
		if !ok {
			return fmt.Errorf("fleet: key %q holds %T", f.key, e)
		}
	}
	return nil
}
