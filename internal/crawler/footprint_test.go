package crawler

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/krpc"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

// footprintStream returns a deterministic stream of node sightings in the
// study's shape: a quarter of the addresses show two to four ports (the
// ablation's multi-port share at scale 1 is 20–30%), every port of a
// multi-port address has its own node ID, and a fifth of the single-port
// addresses also show a second ID, as a client restarting on its port
// does: about 1.6 node IDs per address. Every sighting appears three
// times, as repeated get_nodes answers repeat it.
func footprintStream(addrs int) []krpc.NodeInfo {
	rng := rand.New(rand.NewSource(1))
	var infos []krpc.NodeInfo
	var nextID uint64
	id := func() krpc.NodeID { nextID++; return krpc.GenerateNodeID(0, nextID) }
	for i := 0; i < addrs; i++ {
		addr := iputil.Addr(0x0a000000 + uint32(i)*7)
		port := uint16(1024 + rng.Intn(60000))
		if rng.Intn(4) == 0 {
			for k := 2 + rng.Intn(3); k > 0; k-- {
				infos = append(infos, krpc.NodeInfo{ID: id(), Addr: addr, Port: port + uint16(k)})
			}
			continue
		}
		infos = append(infos, krpc.NodeInfo{ID: id(), Addr: addr, Port: port})
		if rng.Intn(5) == 0 {
			infos = append(infos, krpc.NodeInfo{ID: id(), Addr: addr, Port: port})
		}
	}
	rng.Shuffle(len(infos), func(i, j int) { infos[i], infos[j] = infos[j], infos[i] })
	return append(append(infos, infos...), infos...)
}

// TestCrawlerFootprint bounds the live heap the crawler's state holds per
// observed address, measured after GC, when a synthetic stream of
// sightings in the study's shape has gone through the path get_nodes
// answers take (a sighting and a discovery enqueue each).
func TestCrawlerFootprint(t *testing.T) {
	const (
		addrs           = 30000
		maxBytesPerAddr = 340
	)
	stream := footprintStream(addrs)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := New(&sendLog{}, &manualClock{now: netsim.Epoch}, Config{Seed: 1})
	for _, info := range stream {
		c.enqueue(c.observe(netsim.Endpoint{Addr: info.Addr, Port: info.Port}, info.ID))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(stream)
	st := c.Stats()
	runtime.KeepAlive(c)
	perAddr := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(st.UniqueIPs)
	t.Logf("%d addresses, %d node IDs (%.2f per address), %d multi-port (%.0f%%): %.0f B/address",
		st.UniqueIPs, st.UniqueNodeIDs, float64(st.UniqueNodeIDs)/float64(st.UniqueIPs),
		st.MultiPortIPs, 100*float64(st.MultiPortIPs)/float64(st.UniqueIPs), perAddr)
	if st.UniqueIPs != addrs {
		t.Fatalf("stream observed %d addresses, want %d", st.UniqueIPs, addrs)
	}
	if perAddr > maxBytesPerAddr {
		t.Errorf("crawler holds %.0f B per observed address, want at most %d", perAddr, maxBytesPerAddr)
	}
}
