package fleet

import (
	"reflect"
	"testing"
)

// FuzzDecodeFrame: arbitrary datagrams must never panic the control-plane
// decoder, and every query whose args decode into its method's payload must
// re-encode through EncodeQuery and decode back to the same payload.
func FuzzDecodeFrame(f *testing.F) {
	for _, q := range []struct {
		tx, method string
		payload    Payload
	}{
		{"t1", MethodReady, &Ready{Worker: 3, Shard: "3/4", PID: 1234}},
		{"t2", MethodHB, &Heartbeat{Worker: 2, Sent: 100, Received: 80, InFlight: 7, NATed: 5, Done: 1}},
		{"t3", MethodDone, &Done{Worker: 1, Shard: "1/2", OutFile: "/tmp/x.txt", SawBootstrap: 1, TruePositives: 11,
			Stats: WireStats{GetNodesSent: 100, PingsSent: 50, UniqueIPs: 60, MessagesSent: 150}}},
	} {
		frame, err := EncodeQuery(q.tx, q.method, q.payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	ack, err := EncodeAck("t9")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ack)
	for _, s := range []string{
		"not bencode",
		"i42e",
		"d1:t2:t11:y1:qe",
		"d1:t2:t11:y1:q1:q4:ping4:argsdee",
		"d1:t2:t11:y1:xe",
		"d1:t2:t11:y1:q1:q8:fleet_hbe",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeFrame(data)
		if err != nil || d.IsAck {
			return
		}
		payload := newPayload(d.Method)
		if payload == nil {
			t.Fatalf("DecodeFrame accepted unknown method %q", d.Method)
		}
		if DecodeArgs(d.Args, payload) != nil {
			return
		}
		frame, err := EncodeQuery(d.TxID, d.Method, payload)
		if err != nil {
			t.Fatalf("accepted %s query does not re-encode: %v", d.Method, err)
		}
		back, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("re-encoded %s query does not decode: %v", d.Method, err)
		}
		if back.TxID != d.TxID || back.Method != d.Method {
			t.Fatalf("re-encoded frame is %q/%q, want %q/%q", back.TxID, back.Method, d.TxID, d.Method)
		}
		again := newPayload(d.Method)
		if err := DecodeArgs(back.Args, again); err != nil {
			t.Fatalf("re-encoded %s args do not decode: %v", d.Method, err)
		}
		if !reflect.DeepEqual(again, payload) {
			t.Fatalf("%s payload changed on round trip:\n got %+v\nwant %+v", d.Method, again, payload)
		}
	})
}
