package crawler

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

func TestLogRoundTrip(t *testing.T) {
	var id krpc.NodeID
	id[0], id[19] = 0xab, 0x01
	events := []LogEvent{
		{At: netsim.Epoch, Kind: EvPingTx, Addr: iputil.MustParseAddr("10.0.0.1"), Port: 6881},
		{At: netsim.Epoch.Add(time.Second), Kind: EvPingRx, Addr: iputil.MustParseAddr("10.0.0.1"), Port: 6881, NodeID: id, HasID: true},
	}
	var buf bytes.Buffer
	for _, ev := range events {
		if err := writeEvent(&buf, ev); err != nil {
			t.Fatal(err)
		}
	}
	back, err := ParseLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("parsed %d events", len(back))
	}
	if back[0].Kind != EvPingTx || back[0].HasID {
		t.Errorf("event 0 = %+v", back[0])
	}
	if back[1].NodeID != id || !back[1].HasID {
		t.Errorf("event 1 = %+v", back[1])
	}
	if !back[1].At.Equal(events[1].At) {
		t.Errorf("timestamp = %v", back[1].At)
	}
}

func TestParseLogErrors(t *testing.T) {
	bad := []string{
		"nope\n",
		"2019-01-01T00:00:00Z ping-tx 10.0.0.1 6881\n",        // 4 fields
		"yesterday ping-tx 10.0.0.1 6881 -\n",                 // bad time
		"2019-01-01T00:00:00Z ping-tx 999.0.0.1 6881 -\n",     // bad addr
		"2019-01-01T00:00:00Z ping-tx 10.0.0.1 99999 -\n",     // bad port
		"2019-01-01T00:00:00Z ping-rx 10.0.0.1 6881 zz\n",     // bad hex
		"2019-01-01T00:00:00Z ping-rx 10.0.0.1 6881 abcdef\n", // short ID
	}
	for _, in := range bad {
		if _, err := ParseLog(strings.NewReader(in)); err == nil {
			t.Errorf("ParseLog(%q) succeeded", in)
		}
	}
	// Comments and blanks are fine.
	ok := "# header\n\n2019-01-01T00:00:00Z ping-tx 10.0.0.1 6881 -\n"
	evs, err := ParseLog(strings.NewReader(ok))
	if err != nil || len(evs) != 1 {
		t.Errorf("comment handling: %v, %d events", err, len(evs))
	}
}

func TestReplayRule(t *testing.T) {
	addr := iputil.MustParseAddr("100.64.0.1")
	var idA, idB krpc.NodeID
	idA[0], idB[0] = 1, 2
	t0 := netsim.Epoch

	// Two replies, two ports, two IDs, same window: NATed with 2 users.
	events := []LogEvent{
		{At: t0, Kind: EvPingRx, Addr: addr, Port: 1024, NodeID: idA, HasID: true},
		{At: t0.Add(5 * time.Second), Kind: EvPingRx, Addr: addr, Port: 1025, NodeID: idB, HasID: true},
	}
	obs := Replay(events, 30*time.Second)
	if len(obs) != 1 || obs[0].Users != 2 {
		t.Fatalf("Replay = %+v", obs)
	}

	// Same two replies an hour apart: separate windows, not NATed.
	events[1].At = t0.Add(time.Hour)
	if obs := Replay(events, 30*time.Second); len(obs) != 0 {
		t.Errorf("cross-window replies flagged: %+v", obs)
	}

	// Two ports but the same node ID (one user that changed port): not NATed.
	events[1].At = t0.Add(5 * time.Second)
	events[1].NodeID = idA
	if obs := Replay(events, 30*time.Second); len(obs) != 0 {
		t.Errorf("single-user port change flagged: %+v", obs)
	}

	// Two IDs on one port (reboot): not NATed.
	events[1].NodeID = idB
	events[1].Port = 1024
	if obs := Replay(events, 30*time.Second); len(obs) != 0 {
		t.Errorf("same-port ID churn flagged: %+v", obs)
	}
}

// TestOnlineOfflineAgree runs a crawl with logging enabled and checks the
// offline Replay reaches the same NAT determinations as the live crawler.
func TestOnlineOfflineAgree(t *testing.T) {
	s := newSwarm(t, 20, 0.1)
	s.addNATUsers(t, "100.64.0.1", 3, netsim.FullCone)
	s.addNATUsers(t, "100.64.0.2", 2, netsim.FullCone)

	var logBuf bytes.Buffer
	cfg := fastConfig()
	cfg.EventLog = &logBuf
	c := s.newCrawler(t, cfg)
	c.Start()
	s.clock.RunFor(10 * time.Hour)
	c.Stop()

	online := c.NATed()
	events, err := ParseLog(&logBuf)
	if err != nil {
		t.Fatal(err)
	}
	offline := Replay(events, pingWindow)

	onlineSet := map[iputil.Addr]int{}
	for _, o := range online {
		onlineSet[o.Addr] = o.Users
	}
	offlineSet := map[iputil.Addr]int{}
	for _, o := range offline {
		offlineSet[o.Addr] = o.Users
	}
	for addr, users := range onlineSet {
		ou, ok := offlineSet[addr]
		if !ok {
			t.Errorf("online NAT %v missing offline", addr)
			continue
		}
		// Offline windows slide rather than align with rounds, so the
		// offline bound can only be equal or tighter upward.
		if ou < users {
			t.Errorf("NAT %v: offline users %d < online %d", addr, ou, users)
		}
	}
	for addr := range offlineSet {
		if _, ok := onlineSet[addr]; !ok {
			// Offline sliding windows may merge adjacent rounds; any
			// extra detection must still be a genuine multi-user address
			// in this world (both NATs qualify).
			if addr != iputil.MustParseAddr("100.64.0.1") && addr != iputil.MustParseAddr("100.64.0.2") {
				t.Errorf("offline flagged non-NAT %v", addr)
			}
		}
	}
	if len(online) == 0 {
		t.Error("no NATs detected online; test is vacuous")
	}
}
