package fleet

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"github.com/reuseblock/reuseblock/internal/bencode"
	"github.com/reuseblock/reuseblock/internal/crawler"
)

// newPayload returns an empty payload for a control method.
func newPayload(method string) Payload {
	switch method {
	case MethodReady:
		return &Ready{}
	case MethodHB:
		return &Heartbeat{}
	case MethodDone:
		return &Done{}
	}
	return nil
}

var pinnedStats = WireStats{
	GetNodesSent: 100, GetNodesReplies: 70, PingsSent: 50, PingReplies: 40,
	Timeouts: 30, Retries: 4, LateReplies: 2, Evicted: 1,
	UniqueIPs: 60, UniqueNodeIDs: 90, NATedIPs: 12, MultiPortIPs: 14,
	ScopeSuppressed: 5, SimultaneousMax: 9, PingRoundsRun: 20, SweepsRun: 8,
	MessagesSent: 150, MessagesReceived: 110,
}

// TestProtocolPinnedFrames pins the control-plane wire format byte for
// byte, so workers and coordinators built from different revisions keep
// understanding each other. The zero-valued "d" and "bs" keys stay off the
// wire.
func TestProtocolPinnedFrames(t *testing.T) {
	for _, tc := range []struct {
		name, tx, method string
		payload          Payload
		wire             string
	}{
		{"ready", "t1", MethodReady, &Ready{Worker: 3, Shard: "3/4", PID: 1234},
			"d1:ad3:pidi1234e1:s3:3/41:wi3ee1:q11:fleet_ready1:t2:t11:y1:qe"},
		{"heartbeat", "t2", MethodHB, &Heartbeat{Worker: 2, Sent: 100, Received: 80, InFlight: 7, NATed: 5},
			"d1:ad2:ifi7e3:nati5e2:rxi80e2:txi100e1:wi2ee1:q8:fleet_hb1:t2:t21:y1:qe"},
		{"final heartbeat", "t2", MethodHB, &Heartbeat{Worker: 2, Sent: 100, Received: 80, InFlight: 7, NATed: 5, Done: 1},
			"d1:ad1:di1e2:ifi7e3:nati5e2:rxi80e2:txi100e1:wi2ee1:q8:fleet_hb1:t2:t21:y1:qe"},
		{"done", "t3", MethodDone, &Done{Worker: 1, Shard: "1/2", OutFile: "w1.txt", Stats: pinnedStats, TruePositives: -1},
			"d1:ad1:f6:w1.txt1:s3:1/22:std2:evi1e3:gnri70e3:gnsi100e2:lri2e2:mpi14e2:mri110e2:msi150e3:nati12e2:pri40e3:prri20e2:psi50e2:rti4e2:smi9e2:ssi5e2:swi8e2:toi30e3:uidi90e3:uipi60ee2:tpi-1e1:wi1ee1:q10:fleet_done1:t2:t31:y1:qe"},
		{"done saw bootstrap", "t3", MethodDone, &Done{Worker: 1, Shard: "1/2", OutFile: "w1.txt", Stats: pinnedStats, SawBootstrap: 1, TruePositives: 11},
			"d1:ad2:bsi1e1:f6:w1.txt1:s3:1/22:std2:evi1e3:gnri70e3:gnsi100e2:lri2e2:mpi14e2:mri110e2:msi150e3:nati12e2:pri40e3:prri20e2:psi50e2:rti4e2:smi9e2:ssi5e2:swi8e2:toi30e3:uidi90e3:uipi60ee2:tpi11e1:wi1ee1:q10:fleet_done1:t2:t31:y1:qe"},
	} {
		frame, err := EncodeQuery(tc.tx, tc.method, tc.payload)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(frame) != tc.wire {
			t.Errorf("%s: encoded\n %q\nwant\n %q", tc.name, frame, tc.wire)
		}
		d, err := DecodeFrame([]byte(tc.wire))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := newPayload(d.Method)
		if d.TxID != tc.tx || d.Method != tc.method || DecodeArgs(d.Args, got) != nil {
			t.Fatalf("%s: decoded %+v", tc.name, d)
		}
		if !reflect.DeepEqual(got, tc.payload) {
			t.Errorf("%s: decoded %+v, want %+v", tc.name, got, tc.payload)
		}
	}
}

func TestProtocolReadyRoundTrip(t *testing.T) {
	frame, err := EncodeQuery("t1", MethodReady, &Ready{Worker: 3, Shard: "3/4", PID: 1234})
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if d.IsAck || d.Method != MethodReady || d.TxID != "t1" {
		t.Fatalf("decoded %+v", d)
	}
	var r Ready
	if err := DecodeArgs(d.Args, &r); err != nil {
		t.Fatal(err)
	}
	if r != (Ready{Worker: 3, Shard: "3/4", PID: 1234}) {
		t.Fatalf("ready round trip: %+v", r)
	}
}

func TestProtocolHeartbeatRoundTrip(t *testing.T) {
	in := Heartbeat{Worker: 2, Sent: 100, Received: 80, InFlight: 7, NATed: 5, Done: 1}
	frame, err := EncodeQuery("t2", MethodHB, &in)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	var hb Heartbeat
	if err := DecodeArgs(d.Args, &hb); err != nil {
		t.Fatal(err)
	}
	if hb != in {
		t.Fatalf("heartbeat round trip: %+v != %+v", hb, in)
	}
}

func TestProtocolDoneRoundTripPreservesStats(t *testing.T) {
	st := crawler.Stats{
		GetNodesSent: 100, GetNodesReplies: 70, PingsSent: 50, PingReplies: 40,
		Timeouts: 30, Retries: 4, LateReplies: 2, Evicted: 1,
		UniqueIPs: 60, UniqueNodeIDs: 90, NATedIPs: 12, MultiPortIPs: 14,
		ScopeSuppressed: 5, SimultaneousMax: 9, PingRoundsRun: 20, SweepsRun: 8,
		MessagesSent: 150, MessagesReceived: 110,
		ResponseRate: 110.0 / 150.0,
	}
	in := Done{Worker: 1, Shard: "1/2", OutFile: "/tmp/x.txt", Stats: ToWireStats(st), SawBootstrap: 1, TruePositives: 11}
	frame, err := EncodeQuery("t3", MethodDone, &in)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	var dn Done
	if err := DecodeArgs(d.Args, &dn); err != nil {
		t.Fatal(err)
	}
	if dn.Worker != 1 || dn.Shard != "1/2" || dn.OutFile != "/tmp/x.txt" || dn.SawBootstrap != 1 || dn.TruePositives != 11 {
		t.Fatalf("done round trip: %+v", dn)
	}
	// The stats projection must reconstruct crawler.Stats exactly,
	// including the recomputed ResponseRate.
	if got := dn.Stats.Stats(); !reflect.DeepEqual(got, st) {
		t.Fatalf("stats round trip:\n got %+v\nwant %+v", got, st)
	}
}

func TestProtocolAck(t *testing.T) {
	frame, err := EncodeAck("t9")
	if err != nil {
		t.Fatal(err)
	}
	if string(frame) != "d1:rd2:oki1ee1:t2:t91:y1:re" {
		t.Fatalf("ack encoded as %q", frame)
	}
	d, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsAck || d.TxID != "t9" {
		t.Fatalf("ack decoded as %+v", d)
	}
}

func TestProtocolRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		[]byte("not bencode"),
		[]byte("i42e"),            // not a dict
		[]byte("d1:t2:t11:y1:qe"), // query without method
		[]byte("d1:t2:t11:y1:q1:q4:ping4:argsdee"), // unknown method
		[]byte("d1:t2:t11:y1:xe"),                  // unknown kind
	}
	for _, b := range bad {
		if _, err := DecodeFrame(b); err == nil {
			t.Errorf("DecodeFrame(%q) accepted garbage", b)
		}
	}
}

// TestProtocolQueryMissingArgs: a known method without an args dict is
// rejected rather than decoded into zero values.
func TestProtocolQueryMissingArgs(t *testing.T) {
	if _, err := DecodeFrame([]byte("d1:t2:t11:y1:q1:q8:fleet_hbe")); err == nil {
		t.Fatal("query without args accepted")
	}
}

// decodeArgsOf decodes a control query frame into its method's payload.
func decodeArgsOf(t *testing.T, frame string) (Payload, error) {
	t.Helper()
	d, err := DecodeFrame([]byte(frame))
	if err != nil {
		t.Fatalf("DecodeFrame(%q): %v", frame, err)
	}
	p := newPayload(d.Method)
	return p, DecodeArgs(d.Args, p)
}

// TestProtocolDecodeArgsLenient: inside the args, a missing key leaves its
// field at zero and an unknown key is ignored, at the top level and inside
// the nested stats dict.
func TestProtocolDecodeArgsLenient(t *testing.T) {
	for _, tc := range []struct {
		name, frame string
		want        Payload
	}{
		{"unknown key ignored", "d1:ad1:wi2e3:zzz3:abce1:q8:fleet_hb1:t2:t11:y1:qe", &Heartbeat{Worker: 2}},
		{"unknown key inside st ignored", "d1:ad2:std3:gnsi4e3:zzzi1ee1:wi1ee1:q10:fleet_done1:t2:t31:y1:qe",
			&Done{Worker: 1, Stats: WireStats{GetNodesSent: 4}}},
		{"missing keys zero", "d1:ad2:txi9ee1:q8:fleet_hb1:t2:t11:y1:qe", &Heartbeat{Sent: 9}},
		{"empty args", "d1:ade1:q10:fleet_done1:t2:t31:y1:qe", &Done{}},
	} {
		got, err := decodeArgsOf(t, tc.frame)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		} else if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: decoded %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestProtocolDecodeArgsTypeMismatch: a value of the wrong type, at the top
// level or inside the nested stats dict, is an error, as are args that are
// not a dict at all.
func TestProtocolDecodeArgsTypeMismatch(t *testing.T) {
	for _, tc := range []struct{ name, frame string }{
		{"string where an int belongs", "d1:ad1:w3:twoe1:q8:fleet_hb1:t2:t11:y1:qe"},
		{"int where a string belongs", "d1:ad1:si3e1:wi1ee1:q11:fleet_ready1:t2:t11:y1:qe"},
		{"st not a dict", "d1:ad2:sti5e1:wi1ee1:q10:fleet_done1:t2:t31:y1:qe"},
		{"string inside st", "d1:ad2:std3:gns3:abce1:wi1ee1:q10:fleet_done1:t2:t31:y1:qe"},
	} {
		if got, err := decodeArgsOf(t, tc.frame); err == nil {
			t.Errorf("%s: decoded %+v, want an error", tc.name, got)
		}
	}
	for _, args := range []bencode.Value{nil, int64(1), "w", []bencode.Value{}} {
		if err := DecodeArgs(args, &Ready{}); err == nil {
			t.Errorf("DecodeArgs(%#v) accepted non-dict args", args)
		}
	}
}

// TestProtocolOmitEmpty: only the "d" and "bs" keys leave the wire when
// zero; every other zero-valued field is still sent.
func TestProtocolOmitEmpty(t *testing.T) {
	for _, tc := range []struct {
		method  string
		payload Payload
		want    string
	}{
		{MethodHB, &Heartbeat{}, "d1:ad2:ifi0e3:nati0e2:rxi0e2:txi0e1:wi0ee1:q8:fleet_hb1:t1:x1:y1:qe"},
		{MethodHB, &Heartbeat{Done: 1}, "d1:ad1:di1e2:ifi0e3:nati0e2:rxi0e2:txi0e1:wi0ee1:q8:fleet_hb1:t1:x1:y1:qe"},
		{MethodReady, &Ready{}, "d1:ad3:pidi0e1:s0:1:wi0ee1:q11:fleet_ready1:t1:x1:y1:qe"},
	} {
		frame, err := EncodeQuery("x", tc.method, tc.payload)
		if err != nil {
			t.Fatal(err)
		}
		if string(frame) != tc.want {
			t.Errorf("%+v encoded\n %q\nwant\n %q", tc.payload, frame, tc.want)
		}
	}
	for _, bs := range []int64{0, 1} {
		frame, err := EncodeQuery("x", MethodDone, &Done{SawBootstrap: bs})
		if err != nil {
			t.Fatal(err)
		}
		if has := bytes.Contains(frame, []byte("2:bsi")); has != (bs != 0) {
			t.Errorf("SawBootstrap=%d: bs key present=%v in %q", bs, has, frame)
		}
		for _, key := range []string{"1:f0:", "2:std", "2:tpi0e", "1:wi0e"} {
			if !bytes.Contains(frame, []byte(key)) {
				t.Errorf("SawBootstrap=%d: zero-valued %q dropped from %q", bs, key, frame)
			}
		}
	}
}

// TestProtocolRoundTripProperty: random payloads of every method, the
// nested stats included, decode back to exactly what was encoded.
func TestProtocolRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	num := func() int64 { return rng.Int63n(1<<40) - 1<<39 }
	str := func() string {
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		return string(b)
	}
	for i := 0; i < 300; i++ {
		var st WireStats
		for _, f := range st.fields() {
			*f.num64 = num()
		}
		var method string
		var in Payload
		switch i % 3 {
		case 0:
			method, in = MethodReady, &Ready{Worker: int(num()), Shard: str(), PID: int(num())}
		case 1:
			method, in = MethodHB, &Heartbeat{Worker: int(num()), Sent: num(), Received: num(),
				InFlight: num(), NATed: num(), Done: num() % 2}
		default:
			method, in = MethodDone, &Done{Worker: int(num()), Shard: str(), OutFile: str(),
				Stats: st, SawBootstrap: num() % 2, TruePositives: num()}
		}
		frame, err := EncodeQuery(str(), method, in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeArgsOf(t, string(frame))
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if !reflect.DeepEqual(got, in) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, in)
		}
	}
}
