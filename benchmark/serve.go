package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/reuseapi"
)

// serveParams shapes one serving workload: a synthetic dataset, the open-loop
// traffic mix sent at it, and the reload churn applied while it runs.
type serveParams struct {
	NATed       int           // NATed addresses in the dataset
	Prefixes    int           // dynamic /24 prefixes
	CheckRPS    float64       // GET /v1/check rate
	BatchRPS    float64       // POST /v1/check rate, batchSize addresses each
	ListRPS     float64       // gzip GET /v1/list rate; every second one revalidates
	ReloadEvery time.Duration // 0 serves one dataset throughout
	Churn       float64       // share of NATed addresses replaced per reload
	FullEvery   int           // every FullEvery'th reload is a full Update
	LadderTop   float64       // highest rate of the check_max_rps ladder; 0 runs none
}

var (
	serveCheck = serveParams{NATed: 100_000, Prefixes: 512, CheckRPS: 3000, LadderTop: 20_000}
	serveChurn = serveParams{NATed: 200_000, Prefixes: 4096, CheckRPS: 1000, BatchRPS: 20, ListRPS: 2,
		ReloadEvery: 2 * time.Second, Churn: 0.01, FullEvery: 5}
)

const (
	// checkLimit is the p99 limit a ladder step must meet: well above the
	// /v1/check p99 at the workload's own rate over loopback on two cores,
	// so that a step fails on a growing queue, not on a lone stall.
	checkLimit = 25 * time.Millisecond
	// ladderStep is how long each ladder step offers its rate.
	ladderStep = 2 * time.Second
	// tailQ is the check-latency quantile tail_ms reports. On a shared
	// two-core host p99, and in busy hours p95, move with every stall of a
	// neighbour; p90 is the highest whose per-second values stay steady.
	tailQ       = 0.90
	batchSize   = 100
	sampleEvery = 16 // every sampleEvery'th check response is decoded and verified
	nQueries    = 4096
)

func (p serveParams) describe() map[string]any {
	return map[string]any{"nated": p.NATed, "prefixes": p.Prefixes, "check_rps": p.CheckRPS,
		"batch_rps": p.BatchRPS, "batch_size": batchSize, "list_rps": p.ListRPS,
		"reload_every": p.ReloadEvery.String(), "churn": p.Churn, "full_every": p.FullEvery,
		"conns": runtime.NumCPU(), "check_limit": checkLimit.String(), "ladder_step": ladderStep.String(),
		"ladder_top": p.LadderTop}
}

// streams is the open-loop mix at the given check rate; stream 0 is checks.
func (p serveParams) streams(checkRPS float64) []stream {
	s := []stream{{"check", checkRPS}}
	if p.BatchRPS > 0 {
		s = append(s, stream{"batch", p.BatchRPS})
	}
	if p.ListRPS > 0 {
		s = append(s, stream{"list", p.ListRPS})
	}
	return s
}

// randAddr draws a unicast address in 1.0.0.0 - 223.255.255.255.
func randAddr(rng *rand.Rand) iputil.Addr {
	return iputil.Addr(1<<24 + rng.Uint32()%(223<<24))
}

// genDataset builds the synthetic served dataset.
func genDataset(rng *rand.Rand, nated, prefixes int) *reuseapi.Dataset {
	ds := &reuseapi.Dataset{
		NATUsers:        make(map[iputil.Addr]int, nated),
		DynamicPrefixes: iputil.NewPrefixSet(),
		Generated:       time.Date(2020, 10, 27, 0, 0, 0, 0, time.UTC),
	}
	for ds.DynamicPrefixes.Len() < prefixes {
		ds.DynamicPrefixes.Add(iputil.PrefixFrom(randAddr(rng), 24))
	}
	for len(ds.NATUsers) < nated {
		ds.NATUsers[randAddr(rng)] = 2 + rng.Intn(9)
	}
	return ds
}

// churn returns prev with a share of its NATed addresses and dynamic
// prefixes replaced by fresh ones, scattered over the address space.
func churn(rng *rand.Rand, prev *reuseapi.Dataset, share float64) *reuseapi.Dataset {
	next := &reuseapi.Dataset{
		NATUsers:        make(map[iputil.Addr]int, len(prev.NATUsers)),
		DynamicPrefixes: iputil.NewPrefixSet(),
		Generated:       prev.Generated.Add(time.Hour),
	}
	for a, u := range prev.NATUsers {
		next.NATUsers[a] = u
	}
	addrs := prev.SortedNATed()
	k := int(share * float64(len(addrs)))
	for i := 0; i < k; i++ {
		delete(next.NATUsers, addrs[rng.Intn(len(addrs))])
	}
	for i := 0; i < k; i++ {
		next.NATUsers[randAddr(rng)] = 2 + rng.Intn(9)
	}
	prefixes := prev.DynamicPrefixes.Sorted()
	drop := make(map[iputil.Prefix]bool)
	for i := 0; i < 1+int(share*float64(len(prefixes))); i++ {
		drop[prefixes[rng.Intn(len(prefixes))]] = true
	}
	for _, p := range prefixes {
		if !drop[p] {
			next.DynamicPrefixes.Add(p)
		}
	}
	for next.DynamicPrefixes.Len() < len(prefixes) {
		next.DynamicPrefixes.Add(iputil.PrefixFrom(randAddr(rng), 24))
	}
	return next
}

// queryMix is the addresses the clients ask about: 40% NATed hits, 20%
// dynamic hits, 40% misses, in a seeded order.
type queryMix struct {
	addrs   []iputil.Addr
	paths   []string   // GET /v1/check paths, one per address
	batches [][]byte   // POST /v1/check bodies
	batchIP [][]string // the addresses of each batch body
}

func genQueries(rng *rand.Rand, ds *reuseapi.Dataset) *queryMix {
	nated := ds.SortedNATed()
	prefixes := ds.DynamicPrefixes.Sorted()
	q := &queryMix{}
	for i := 0; i < nQueries; i++ {
		var a iputil.Addr
		switch r := rng.Intn(10); {
		case r < 4:
			a = nated[rng.Intn(len(nated))]
		case r < 6:
			a = prefixes[rng.Intn(len(prefixes))].Base() + iputil.Addr(rng.Intn(256))
		default:
			a = randAddr(rng)
		}
		q.addrs = append(q.addrs, a)
		q.paths = append(q.paths, "/v1/check?ip="+a.String())
	}
	for b := 0; b < 64; b++ {
		ips := make([]string, batchSize)
		for i := range ips {
			ips[i] = q.addrs[rng.Intn(len(q.addrs))].String()
		}
		body, _ := json.Marshal(ips)
		q.batches = append(q.batches, body)
		q.batchIP = append(q.batchIP, ips)
	}
	return q
}

// liveServer is a one-dataset Registry served on a loopback listener.
type liveServer struct {
	srv  *reuseapi.Server
	reg  *reuseapi.Registry
	hs   *http.Server
	base string
	done chan struct{}
}

// startServer compiles ds, serves it on a fresh loopback port and waits for
// the first answer; the returned duration is the set-up time.
func startServer(ds *reuseapi.Dataset, tr *tracer) (*liveServer, time.Duration, error) {
	t0 := time.Now()
	ls := &liveServer{reg: reuseapi.NewRegistry(), done: make(chan struct{})}
	compile := func(int64) { ls.srv = reuseapi.NewServer(ds) }
	if tr != nil {
		tr.do(0, "reuseapi.NewServer", compile)
	} else {
		compile(0)
	}
	if err := ls.reg.Register("default", ls.srv); err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	ls.base = "http://" + ln.Addr().String()
	ls.hs = &http.Server{Handler: ls.reg.Handler()}
	go func() {
		defer close(ls.done)
		_ = ls.hs.Serve(ln)
	}()
	c := newClient()
	defer c.CloseIdleConnections()
	first := func(int64) { err = getOK(c, ls.base+"/v1/check?ip=192.0.2.1") }
	if tr != nil {
		tr.do(0, "http.first", first)
	} else {
		first(0)
	}
	if err != nil {
		ls.close()
		return nil, 0, fmt.Errorf("first request: %w", err)
	}
	return ls, time.Since(t0), nil
}

func (ls *liveServer) close() {
	_ = ls.hs.Close()
	<-ls.done
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

func newClients() []*http.Client {
	cs := make([]*http.Client, runtime.NumCPU())
	for i := range cs {
		cs[i] = newClient()
	}
	return cs
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

func getOK(c *http.Client, url string) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// generation is one dataset version a phase serves.
type generation struct {
	ds    *reuseapi.Dataset
	ready chan struct{} // closed once list and etag are set
	list  []byte        // identity /v1/list body served for it
	gz    []byte        // its gzip encoding
	etag  string
}

// serveRun is one serving workload's state across its phases.
type serveRun struct {
	p       serveParams
	rng     *rand.Rand
	ls      *liveServer
	q       *queryMix
	clients []*http.Client
	served  *reuseapi.Dataset // the dataset the server holds between phases
	reloads int               // reloads applied so far, across phases
	tr      *tracer           // nil for untraced phases
	parent  int64
}

// phaseResult is one open-loop phase's measurements.
type phaseResult struct {
	load          loadResult
	cpu           float64
	reloadMS      []float64
	diffMS        []float64
	applyMS       []float64
	updateMS      []float64
	deltaOps      []float64
	revalidations int64
	notModified   int64
	listBytes     int64
}

// phase runs the mix at checkRPS for dur, reloading every ReloadEvery from
// the middle of the first interval when the workload churns.
func (r *serveRun) phase(dur time.Duration, checkRPS float64) phaseResult {
	gens := []*generation{{ds: r.served, ready: make(chan struct{})}}
	body := r.ls.srv.Snapshot().PrecomputedBodies()["list"]
	gens[0].list, gens[0].gz, gens[0].etag = body.Body, body.Gzip, body.ETag
	close(gens[0].ready)
	if r.p.ReloadEvery > 0 {
		for at := r.p.ReloadEvery / 2; at < dur; at += r.p.ReloadEvery {
			gens = append(gens, &generation{ds: churn(r.rng, gens[len(gens)-1].ds, r.p.Churn), ready: make(chan struct{})})
		}
	}
	ph := &phaseState{run: r, gens: gens}
	streams := r.p.streams(checkRPS)
	var res phaseResult
	var wg sync.WaitGroup
	start := time.Now()
	c0 := cpuSeconds()
	if len(gens) > 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ph.reload(start, &res)
		}()
	}
	res.load = runOpenLoop(dur, len(r.clients), streams, func(c int, ev event) error {
		if r.tr == nil {
			return ph.send(c, streams[ev.stream].name, ev.seq)
		}
		_, end := r.tr.begin(r.parent, "http."+streams[ev.stream].name)
		err := ph.send(c, streams[ev.stream].name, ev.seq)
		end()
		return err
	})
	wg.Wait()
	ph.verifying.Wait()
	res.cpu = cpuSeconds() - c0
	res.load.failed += len(ph.failures)
	res.load.failures = append(res.load.failures, ph.failures...)
	res.revalidations, res.notModified, res.listBytes = ph.revalidations.Load(), ph.notModified.Load(), ph.listBytes.Load()
	r.served = gens[len(gens)-1].ds
	return res
}

// phaseState is what the senders and the reloader of one phase share.
type phaseState struct {
	run     *serveRun
	gens    []*generation
	pending atomic.Int64 // highest generation whose swap has started
	cur     atomic.Int64 // highest generation fully swapped in
	etag    atomic.Value // last list ETag a client saw (string)

	revalidations, notModified, listBytes atomic.Int64

	verifying sync.WaitGroup // list answers still being verified
	mu        sync.Mutex
	failures  []string // failed list verifications
}

// reload swaps in generations 1.. at their scheduled times: DiffDatasets
// plus ApplyDelta, or a full Update every FullEvery'th reload.
func (ph *phaseState) reload(start time.Time, res *phaseResult) {
	r := ph.run
	for k := 1; k < len(ph.gens); k++ {
		time.Sleep(time.Until(start.Add(r.p.ReloadEvery/2 + time.Duration(k-1)*r.p.ReloadEvery)))
		prev, next := ph.gens[k-1].ds, ph.gens[k].ds
		ph.pending.Store(int64(k))
		t0 := time.Now()
		if r.reloads%r.p.FullEvery == r.p.FullEvery-1 {
			res.updateMS = append(res.updateMS, ms(r.timed("reuseapi.Server.Update", func() { r.ls.srv.Update(next) })))
		} else {
			var d *reuseapi.Delta
			res.diffMS = append(res.diffMS, ms(r.timed("reuseapi.DiffDatasets", func() { d = reuseapi.DiffDatasets(prev, next) })))
			res.applyMS = append(res.applyMS, ms(r.timed("reuseapi.Server.ApplyDelta", func() { r.ls.srv.ApplyDelta(d) })))
			res.deltaOps = append(res.deltaOps, float64(d.Ops()))
		}
		res.reloadMS = append(res.reloadMS, ms(time.Since(t0)))
		r.reloads++
		body := r.ls.srv.Snapshot().PrecomputedBodies()["list"]
		ph.gens[k].list, ph.gens[k].gz, ph.gens[k].etag = body.Body, body.Gzip, body.ETag
		close(ph.gens[k].ready)
		ph.cur.Store(int64(k))
	}
}

// timed runs fn, under a span when the run is traced.
func (r *serveRun) timed(name string, fn func()) time.Duration {
	if r.tr == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	return r.tr.do(r.parent, name, func(int64) { fn() })
}

// candidates returns the generations that may have answered a request
// sent while generation g0 was current and received while g1 was: any
// from g0 up to one whose swap was under way.
func (ph *phaseState) candidates(g0, g1 int64) []*generation {
	hi := g1 + 1
	if p := ph.pending.Load(); hi > p {
		hi = p
	}
	var out []*generation
	for k := g0; k <= hi && int(k) < len(ph.gens); k++ {
		out = append(out, ph.gens[k])
	}
	return out
}

func (ph *phaseState) send(c int, kind string, seq int) error {
	switch kind {
	case "check":
		return ph.check(c, seq)
	case "batch":
		return ph.batch(c, seq)
	default:
		return ph.list(c, seq)
	}
}

// check sends GET /v1/check and verifies every sampleEvery'th verdict
// against Dataset.Verdict of the generation that answered.
func (ph *phaseState) check(c, seq int) error {
	r := ph.run
	i := seq % len(r.q.addrs)
	g0 := ph.cur.Load()
	resp, err := r.clients[c].Get(r.ls.base + r.q.paths[i])
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if seq%sampleEvery != 0 {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var v reuseapi.Verdict
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("decode verdict: %w", err)
	}
	for _, g := range ph.candidates(g0, ph.cur.Load()) {
		if v == g.ds.Verdict(r.q.addrs[i]) {
			return nil
		}
	}
	return fmt.Errorf("verdict %+v matches no served dataset", v)
}

// batch sends POST /v1/check and verifies every verdict of the answer.
func (ph *phaseState) batch(c, seq int) error {
	r := ph.run
	i := seq % len(r.q.batches)
	g0 := ph.cur.Load()
	resp, err := r.clients[c].Post(r.ls.base+"/v1/check", "application/json", bytes.NewReader(r.q.batches[i]))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	var vs []reuseapi.Verdict
	if err := json.Unmarshal(body, &vs); err != nil {
		return fmt.Errorf("decode batch: %w", err)
	}
	if len(vs) != batchSize {
		return fmt.Errorf("%d verdicts for %d addresses", len(vs), batchSize)
	}
next:
	for _, g := range ph.candidates(g0, ph.cur.Load()) {
		for j, ip := range r.q.batchIP[i] {
			a, _ := iputil.ParseAddr(ip)
			if vs[j] != g.ds.Verdict(a) {
				continue next
			}
		}
		return nil
	}
	return errors.New("batch verdicts match no served dataset")
}

// list sends a gzip GET /v1/list; every second one revalidates with the
// last ETag seen. The answer is verified off the connection, so unpacking a
// multi-megabyte body does not delay the requests queued behind it.
func (ph *phaseState) list(c, seq int) error {
	r := ph.run
	req, err := http.NewRequest(http.MethodGet, r.ls.base+"/v1/list", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept-Encoding", "gzip")
	sent, _ := ph.etag.Load().(string)
	if seq%2 == 1 && sent != "" {
		req.Header.Set("If-None-Match", sent)
		ph.revalidations.Add(1)
	} else {
		sent = ""
	}
	g0 := ph.cur.Load()
	resp, err := r.clients[c].Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	cands := ph.candidates(g0, ph.cur.Load())
	switch resp.StatusCode {
	case http.StatusNotModified:
		ph.notModified.Add(1)
	case http.StatusOK:
		ph.listBytes.Store(int64(len(raw)))
		ph.etag.Store(resp.Header.Get("ETag"))
	default:
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	ph.verifying.Add(1)
	go func() {
		defer ph.verifying.Done()
		if err := verifyList(resp, raw, sent, cands, seq%4 == 0); err != nil {
			ph.mu.Lock()
			ph.failures = append(ph.failures, fmt.Sprintf("list #%d: %v", seq, err))
			ph.mu.Unlock()
		}
	}()
	return nil
}

// verifyList checks a /v1/list answer against the generations that may have
// served it: a 304 only for an ETag one of them carries, a 200 whose body is
// the compiled gzip list of a generation with the answer's ETag and, when
// unpack is set, gunzips to that generation's list.
func verifyList(resp *http.Response, raw []byte, sent string, cands []*generation, unpack bool) error {
	for _, g := range cands {
		<-g.ready
	}
	if resp.StatusCode == http.StatusNotModified {
		for _, g := range cands {
			if sent != "" && g.etag == sent {
				return nil
			}
		}
		return fmt.Errorf("304 for If-None-Match %q, not a served ETag", sent)
	}
	if resp.Header.Get("Content-Encoding") != "gzip" {
		return errors.New("list not gzip-encoded")
	}
	etag := resp.Header.Get("ETag")
	for _, g := range cands {
		if g.etag != etag || !bytes.Equal(g.gz, raw) {
			continue
		}
		if sent == etag {
			return fmt.Errorf("200 for If-None-Match %q, the served ETag", sent)
		}
		if !unpack {
			return nil
		}
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return fmt.Errorf("gunzip list: %w", err)
		}
		plain, err := io.ReadAll(zr)
		if err != nil {
			return fmt.Errorf("gunzip list: %w", err)
		}
		if !bytes.Equal(plain, g.list) {
			return errors.New("list body does not gunzip to the served list")
		}
		return nil
	}
	return errors.New("list body matches no served dataset")
}

// throughput is checks answered per CPU-second of the window, reloads
// included where the workload churns: the rate ladder's capacity moved by
// more than a quarter between runs on a shared two-core host, so
// check_max_rps is reported but not gated.
func throughput(window phaseResult) float64 {
	return float64(len(window.load.lat[0])) / window.cpu
}

// maxRPS is check_max_rps: the highest ladder rate whose step meets the p99
// limit with no failures and no growing backlog.
func (r *serveRun) maxRPS(o *outcome) float64 {
	best := searchLadder(rateLadder(r.p.CheckRPS, r.p.LadderTop), func(rate float64) error {
		// A step gets a second try, so one stall of the host does not cut
		// the search short; a rate past capacity fails both.
		var err error
		for try := 0; try < 2; try++ {
			res := r.phase(ladderStep, rate)
			o.count(res.load)
			if err = res.load.meets(0, checkLimit); err == nil {
				return nil
			}
		}
		return err
	})
	if best == 0 {
		o.gate("ladder", fmt.Errorf("even %.0f rps missed the %v p99 limit", r.p.CheckRPS, checkLimit))
	}
	return best
}

// count folds a phase's requests into the outcome's operation counts.
func (o *outcome) count(l loadResult) {
	o.attempted += l.scheduled
	o.failed += l.failed
	for _, f := range l.failures {
		if len(o.failures) < 20 {
			o.failures = append(o.failures, f)
		}
	}
}

func newServeRun(p serveParams, seed int64) *serveRun {
	rng := rand.New(rand.NewSource(seed))
	base := genDataset(rng, p.NATed, p.Prefixes)
	return &serveRun{p: p, rng: rng, q: genQueries(rng, base), served: base, clients: newClients()}
}

// setup starts the server as repeatSetup asks and keeps the last one running.
func (r *serveRun) setup() ([]float64, error) {
	return repeatSetup(func() (time.Duration, error) {
		if r.ls != nil {
			r.ls.close()
			r.ls = nil
		}
		runtime.GC()
		ls, d, err := startServer(r.served, nil)
		r.ls = ls
		return d, err
	})
}

func (r *serveRun) close() {
	closeClients(r.clients)
	if r.ls != nil {
		r.ls.close()
	}
}

// tailOf is a window's tail_ms and its sample count. For a read-only
// workload it is the check latency's per-second p90; under churn it is the
// slowest reload, because the check tail there swings by a quarter from run
// to run with how each reload's CPU burst meets the scheduler, while reload
// times hold steady.
func tailOf(res phaseResult) (float64, int) {
	if len(res.reloadMS) > 0 {
		return slices.Max(res.reloadMS), len(res.reloadMS)
	}
	return ms(res.load.perSecond(0, tailQ)), len(res.load.lat[0])
}

// p50Of is a window's p50_ms and its sample count. For a read-only workload
// it is the check latency's per-second median; under churn it is the median
// reload (reload_p50_ms). There the check median, about 0.3 ms of which most
// is waking threads, and the batch median moved by a third or more between
// sets of ten runs as the host's load changed, while the median reload, which
// is compute, held within about a sixth.
func p50Of(res phaseResult) (float64, int) {
	if len(res.reloadMS) > 0 {
		return median(res.reloadMS), len(res.reloadMS)
	}
	return ms(res.load.perSecond(0, 0.5)), len(res.load.lat[0])
}

// addWindow records the end-to-end metrics of a measured phase.
func addWindow(o *outcome, p serveParams, res phaseResult) {
	l := res.load
	check := l.lat[0]
	p50, n := p50Of(res)
	o.add("p50_ms", "ms", p50, n)
	tail, n := tailOf(res)
	o.add("tail_ms", "ms", tail, n)
	o.add("check_p50_ms", "ms", ms(percentile(check, 0.5)), len(check))
	o.add("check_p90_ms", "ms", ms(percentile(check, 0.90)), len(check))
	o.add("check_p95_ms", "ms", ms(percentile(check, 0.95)), len(check))
	o.add("check_p99_ms", "ms", ms(percentile(check, 0.99)), len(check))
	o.add("cpu_s", "s", res.cpu, 1)
	o.add("loadgen.lag_p50_ms", "ms", ms(percentile(l.lag, 0.5)), len(l.lag))
	o.add("loadgen.lag_p99_ms", "ms", ms(percentile(l.lag, 0.99)), len(l.lag))
	for s, st := range p.streams(p.CheckRPS)[1:] {
		lat := l.lat[s+1]
		name, q := tailName(st.name, len(lat))
		o.add(name, "ms", ms(percentile(lat, q)), len(lat))
	}
	if len(res.reloadMS) > 0 {
		o.add("reload_p50_ms", "ms", median(res.reloadMS), len(res.reloadMS))
	}
}

// runServe measures a serving workload: set-up, one open-loop window at the
// workload's rates, then the rate ladder if the workload has one.
func runServe(p serveParams, cfg runConfig) (*outcome, error) {
	if cfg.traced {
		return traceServe(p, cfg)
	}
	o := &outcome{}
	r := newServeRun(p, cfg.seed)
	defer r.close()
	setups, err := r.setup()
	if err != nil {
		return o, err
	}
	o.add("setup_s", "s", median(setups), len(setups))
	restartPeakRSS()
	res := r.phase(cfg.seconds, p.CheckRPS)
	o.count(res.load)
	addWindow(o, p, res)
	o.add("throughput_per_s", "1/s", throughput(res), len(res.load.lat[0]))
	if p.LadderTop > 0 {
		o.add("check_max_rps", "1/s", r.maxRPS(o), 1)
	}
	return o, nil
}

// traceServe measures the same workload untraced and traced side by side,
// and replays the serving layers one call at a time.
func traceServe(p serveParams, cfg runConfig) (*outcome, error) {
	o := &outcome{}
	tr := newTracer(runID(cfg.workload, cfg.seed))
	r := newServeRun(p, cfg.seed)
	defer r.close()

	ls, setupUntraced, err := startServer(r.served, nil)
	if err != nil {
		return o, err
	}
	ls.close()
	ls, setupTraced, err := startServer(r.served, tr)
	if err != nil {
		return o, err
	}
	r.ls = ls
	compile, _ := tr.median("reuseapi.NewServer")
	o.add("reuseapi.compile_s", "s", compile.Seconds(), 1)
	if err := replayLayers(o, tr, r); err != nil {
		return o, err
	}

	// Untraced, then traced window over the same schedule.
	rssReset := restartPeakRSS()
	plain := r.phase(cfg.seconds, p.CheckRPS)
	o.count(plain.load)
	plainRSS := peakRSSMB()
	rssReset = restartPeakRSS() && rssReset
	rt0 := readRuntime()
	heap := watchHeap()
	var traced phaseResult
	tr.do(0, "window "+cfg.workload, func(id int64) {
		r.tr, r.parent = tr, id
		traced = r.phase(cfg.seconds, p.CheckRPS)
		r.tr = nil
	})
	addRuntime(o, rt0, readRuntime(), heap.peakMB())
	tracedRSS := peakRSSMB()
	o.count(traced.load)

	l := traced.load
	o.add("loadgen.scheduled", "count", float64(l.scheduled), 1)
	o.add("loadgen.sent", "count", float64(l.sent), 1)
	o.add("loadgen.lag_p99_ms", "ms", ms(percentile(l.lag, 0.99)), len(l.lag))
	if len(traced.reloadMS) > 0 {
		o.add("reuseapi.diff_ms", "ms", median(traced.diffMS), len(traced.diffMS))
		o.add("reuseapi.apply_delta_ms", "ms", median(traced.applyMS), len(traced.applyMS))
		o.add("reuseapi.update_ms", "ms", median(traced.updateMS), len(traced.updateMS))
		o.add("reuseapi.delta_ops", "count", median(traced.deltaOps), len(traced.deltaOps))
	}
	if p.ListRPS > 0 {
		o.add("reuseapi.list_bytes", "B", float64(traced.listBytes), 1)
		if traced.revalidations > 0 {
			o.add("reuseapi.list_304_share", "ratio", float64(traced.notModified)/float64(traced.revalidations), int(traced.revalidations))
		}
	}

	o.add("trace.overhead.setup_s", "%", overhead(setupTraced.Seconds(), setupUntraced.Seconds()), 1)
	plainP50, _ := p50Of(plain)
	tracedP50, n := p50Of(traced)
	o.add("trace.overhead.p50_ms", "%", overhead(tracedP50, plainP50), n)
	plainTail, _ := tailOf(plain)
	tracedTail, n := tailOf(traced)
	o.add("trace.overhead.tail_ms", "%", overhead(tracedTail, plainTail), n)
	o.add("trace.overhead.throughput_per_s", "%", rateOverhead(throughput(traced), throughput(plain)), 1)
	o.add("trace.overhead.cpu_s", "%", overhead(traced.cpu, plain.cpu), 1)
	if !rssReset {
		return o, errRSSReset
	}
	o.add("trace.overhead.peak_rss_mb", "%", overhead(tracedRSS, plainRSS), 1)
	o.add("trace.spans", "count", float64(tr.count()), 1)
	if err := tr.write(cfg.spans); err != nil {
		return o, fmt.Errorf("write spans: %w", err)
	}
	return o, nil
}

// nopWriter is a ResponseWriter that discards the body, so a handler can be
// timed without a network or a recorder's buffering.
type nopWriter struct{ h http.Header }

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopWriter) WriteHeader(int)             {}

// replayLayers times the serving layers in isolation over the workload's
// query mix: the compiled lookup, the registry handler with no network,
// batch checks, and serial round trips over one loopback connection. Each
// loop runs under one span; the per-call figures divide by its call count.
func replayLayers(o *outcome, tr *tracer, r *serveRun) error {
	snap := r.ls.srv.Snapshot()
	const verdictCalls = 400_000
	d := tr.do(0, "reuseapi.Snapshot.Verdict x400000", func(int64) {
		for i := 0; i < verdictCalls; i++ {
			snap.Verdict(r.q.addrs[i%len(r.q.addrs)])
		}
	})
	o.add("reuseapi.verdict_ns", "ns", float64(d.Nanoseconds())/verdictCalls, verdictCalls)

	h := r.ls.reg.Handler()
	reqs := make([]*http.Request, len(r.q.paths))
	for i, path := range r.q.paths {
		reqs[i] = httptest.NewRequest(http.MethodGet, path, nil)
	}
	w := &nopWriter{h: http.Header{}}
	const handlerCalls = 200_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d = tr.do(0, "reuseapi.Registry.Handler.ServeHTTP x200000", func(int64) {
		for i := 0; i < handlerCalls; i++ {
			h.ServeHTTP(w, reqs[i%len(reqs)])
		}
	})
	runtime.ReadMemStats(&after)
	handlerNS := float64(d.Nanoseconds()) / handlerCalls
	o.add("reuseapi.handler_ns", "ns", handlerNS, handlerCalls)
	o.add("reuseapi.handler_allocs", "count", float64(after.Mallocs-before.Mallocs)/handlerCalls, handlerCalls)

	const batchCalls = 1000
	d = tr.do(0, "reuseapi.Registry.Handler.ServeHTTP batch x1000", func(int64) {
		for i := 0; i < batchCalls; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(r.q.batches[i%len(r.q.batches)]))
			h.ServeHTTP(w, req)
		}
	})
	o.add("reuseapi.batch_ns_per_ip", "ns", float64(d.Nanoseconds())/(batchCalls*batchSize), batchCalls*batchSize)

	c := newClient()
	defer c.CloseIdleConnections()
	const rtts = 5000
	lat := make([]time.Duration, 0, rtts)
	for i := 0; i < rtts; i++ {
		var err error
		lat = append(lat, tr.do(0, "http.rtt", func(int64) { err = getOK(c, r.ls.base+r.q.paths[i%len(r.q.paths)]) }))
		if err != nil {
			return fmt.Errorf("round trip: %w", err)
		}
	}
	sortDurations(lat)
	rtt := float64(percentile(lat, 0.5).Nanoseconds()) / 1000
	o.add("http.rtt_p50_us", "us", rtt, rtts)
	o.add("http.overhead_us", "us", rtt-handlerNS/1000, rtts)
	return nil
}
