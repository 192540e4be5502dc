// Package reuseapi serves a reused-address list over HTTP — the release
// form of the paper's published artifact ("we make our techniques publicly
// available and also publish a new address list that has all reused
// addresses we detect", §1). Operators integrate it as a lookup service:
//
//	GET  /v1/check?ip=192.0.2.7    -> JSON verdict (reused? how? users?)
//	POST /v1/check                 -> batch: JSON array of IPs -> array of verdicts
//	GET  /v1/list                  -> the full plain-text list (ETag, gzip)
//	GET  /v1/prefixes              -> dynamic prefixes, one CIDR per line (ETag, gzip)
//	GET  /v1/stats                 -> dataset summary
//	GET  /v1/greylist?ip=192.0.2.7 -> verdict + recommended action/expiry (§6 mitigation)
//
// There is one serving path. Each dataset is a Server — a compiled snapshot
// with its own admission control — registered under a name in a Registry
// (registry.go), whose handler is the only HTTP surface: every endpoint
// answers at /v1/{dataset}/..., and the unprefixed routes above alias the
// default (first-registered) dataset. A single-dataset deployment is a
// one-entry Registry.
//
// The serving path is built around an immutable compiled Snapshot per
// dataset (see snapshot.go): handlers read one atomic pointer, do a binary
// search or a trie walk, and write precomputed or pool-buffered bytes — no
// locks, no per-request sorting, no steady-state allocation on the check
// path. Update compiles a fresh snapshot off the request path and swaps the
// pointer, so datasets hot-reload under load without a stalled request.
package reuseapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"github.com/reuseblock/reuseblock/internal/greylist"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/obs"
	"github.com/reuseblock/reuseblock/internal/shed"
)

// Dataset is the served reuse knowledge. Build one from a Study's report or
// from files collected on disk.
type Dataset struct {
	// NATUsers maps NATed addresses to the crawler's user lower bound.
	NATUsers map[iputil.Addr]int
	// DynamicPrefixes are the RIPE pipeline's dynamic /24s.
	DynamicPrefixes *iputil.PrefixSet
	// Generated stamps the dataset build time.
	Generated time.Time
}

// Verdict is the JSON answer of /v1/check.
type Verdict struct {
	IP      string `json:"ip"`
	Reused  bool   `json:"reused"`
	NATed   bool   `json:"nated"`
	Dynamic bool   `json:"dynamic"`
	// Users is the lower bound of simultaneous users for NATed addresses
	// (0 otherwise).
	Users int `json:"users,omitempty"`
	// Prefix is the covering dynamic prefix, when Dynamic.
	Prefix string `json:"prefix,omitempty"`
	// Advice mirrors the paper's Section 6 guidance.
	Advice string `json:"advice"`
}

// Error is the JSON body of every non-2xx answer.
type Error struct {
	Error string `json:"error"`
	// Detail names the offending parameter or value when there is one.
	Detail string `json:"detail,omitempty"`
}

// MaxBatchBytes bounds the POST /v1/check request body; a full batch of
// MaxBatchIPs dotted quads fits comfortably.
const MaxBatchBytes = 1 << 20

// MaxBatchIPs bounds how many addresses one batch check may carry.
const MaxBatchIPs = 10_000

// Server is one served dataset: its compiled snapshot, swapped atomically by
// Update and ApplyDelta, plus the per-dataset serving policy (admission
// control and greylist windows). It has no HTTP surface of its own — register
// it in a Registry, which serves every dataset. Safe for concurrent use. Set
// the exported fields before the Registry builds its handler.
type Server struct {
	snap atomic.Pointer[Snapshot]

	// Shed, when non-nil, turns on overload resilience: per-class admission
	// gates, per-client rate limiting and degraded-mode serving for this
	// dataset, and mounts the Registry's /healthz + /readyz probes. Nil (the
	// default) keeps every serving path byte-identical to the unguarded
	// build (see shed.go).
	Shed *shed.Controller
	// Greylist tunes the /v1/greylist recommendation windows; the zero
	// value takes the greylist package's defaults.
	Greylist greylist.Config

	// now stubs the /v1/greylist clock in tests; nil means time.Now.
	now func() time.Time
}

// NewServer builds a server over the dataset, compiling its first snapshot.
func NewServer(data *Dataset) *Server {
	s := &Server{}
	s.snap.Store(Compile(normalize(data)))
	return s
}

// Update swaps the served dataset (e.g. after a fresh crawl). The snapshot
// is compiled here, off the request path; in-flight requests keep the
// snapshot they already loaded, new requests see the new one.
func (s *Server) Update(data *Dataset) {
	s.snap.Store(Compile(normalize(data)))
}

// Snapshot returns the currently served compiled dataset.
func (s *Server) Snapshot() *Snapshot {
	return s.snap.Load()
}

func normalize(data *Dataset) *Dataset {
	if data.DynamicPrefixes == nil {
		data.DynamicPrefixes = iputil.NewPrefixSet()
	}
	if data.NATUsers == nil {
		data.NATUsers = map[iputil.Addr]int{}
	}
	return data
}

// endpointSet is one dataset's fully wrapped API handlers: admission-guarded
// by cost class when the server sheds, then counted. A Registry's routing
// dispatches into one per dataset.
type endpointSet struct {
	check, list, prefixes, stats, greylist http.HandlerFunc
}

// lookup maps the final path segment to its handler; nil for unknown names.
func (e *endpointSet) lookup(name string) http.HandlerFunc {
	switch name {
	case "check":
		return e.check
	case "list":
		return e.list
	case "prefixes":
		return e.prefixes
	case "stats":
		return e.stats
	case "greylist":
		return e.greylist
	default:
		return nil
	}
}

// endpoints builds the wrapped endpoint handlers. Per-endpoint metrics land
// in reg under the dataset label, so one /metrics separates the datasets.
func (s *Server) endpoints(dataset string, reg *obs.Registry) endpointSet {
	wrap := func(endpoint string, class shed.Class, h http.HandlerFunc) http.HandlerFunc {
		return counted(reg, dataset, endpoint, s.guarded(class, h))
	}
	return endpointSet{
		check:    counted(reg, dataset, "check", s.handleCheck()),
		list:     wrap("list", shed.ClassHeavy, s.handleList),
		prefixes: wrap("prefixes", shed.ClassHeavy, s.handlePrefixes),
		stats:    wrap("stats", shed.ClassCheap, s.handleStats),
		greylist: wrap("greylist", shed.ClassCheap, s.handleGreylist),
	}
}

// latencyBuckets are the per-endpoint request-duration bounds, in seconds.
var latencyBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1}

// counted wraps an endpoint handler with a request counter and a latency
// histogram. The metric handles are resolved once here — not per request —
// so the hot path does no name composition or registry locking.
func counted(reg *obs.Registry, dataset, endpoint string, h http.HandlerFunc) http.HandlerFunc {
	if reg == nil {
		// No registry, no wrapper: the uninstrumented hot path should not
		// pay for two clock reads per request.
		return h
	}
	labels := []string{"dataset", dataset, "endpoint", endpoint}
	reqs := reg.Counter(obs.Name(obs.WallPrefix+"api_requests_total", labels...))
	lat := reg.Histogram(obs.Name(obs.WallPrefix+"api_request_seconds", labels...), latencyBuckets)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqs.Inc()
		h(w, r)
		lat.Observe(time.Since(start).Seconds())
	}
}

// writeError answers with an Error body so clients never have to parse
// free-text failures.
func writeError(w http.ResponseWriter, code int, msg, detail string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(Error{Error: msg, Detail: detail})
}

// encodeJSONLine is json.Encoder.Encode into a byte slice: Marshal plus the
// trailing newline, with identical escaping.
func encodeJSONLine(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		// The types encoded here (Stats, []Verdict) cannot fail to marshal.
		panic(err)
	}
	return append(data, '\n')
}

// queryIP extracts the ip parameter from the raw query without building the
// url.Values map — the only query parameter the check endpoint takes, parsed
// allocation-free for the hot path. Addresses never need unescaping, so a
// value containing '%' or '+' is simply left as-is and fails ParseAddr.
func queryIP(r *http.Request) (string, bool) {
	q := r.URL.RawQuery
	for len(q) > 0 {
		var pair string
		if i := strings.IndexByte(q, '&'); i >= 0 {
			pair, q = q[:i], q[i+1:]
		} else {
			pair, q = q, ""
		}
		if rest, ok := strings.CutPrefix(pair, "ip="); ok {
			return rest, true
		}
	}
	return "", false
}

// handleCheck splits /v1/check by method: single GET checks ride the cheap
// admission class (they must keep flowing during a batch flood), batch POSTs
// the heavy one.
func (s *Server) handleCheck() http.HandlerFunc {
	one := s.guarded(shed.ClassCheap, s.handleCheckOne)
	batch := s.guarded(shed.ClassHeavy, s.handleCheckBatch)
	return func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			one(w, r)
		case http.MethodPost:
			batch(w, r)
		default:
			writeError(w, http.StatusMethodNotAllowed, "method not allowed", r.Method)
		}
	}
}

// handleCheckOne is the hot path: one atomic load, a binary search, a trie
// walk, and an append-only encode into a pooled buffer. Zero steady-state
// allocations (pinned by TestCheckHotPathZeroAlloc).
func (s *Server) handleCheckOne(w http.ResponseWriter, r *http.Request) {
	ipStr, ok := queryIP(r)
	if !ok || ipStr == "" {
		writeError(w, http.StatusBadRequest, "missing ip parameter", "")
		return
	}
	addr, err := iputil.ParseAddr(ipStr)
	if err != nil {
		writeError(w, http.StatusBadRequest, "malformed ip parameter", ipStr)
		return
	}
	snap := s.snap.Load()
	bufp := verdictBufPool.Get().(*[]byte)
	buf := snap.appendVerdict((*bufp)[:0], addr)
	setContentTypeJSON(w)
	_, _ = w.Write(buf)
	*bufp = buf[:0]
	verdictBufPool.Put(bufp)
}

// contentTypeJSON is the shared Content-Type value for the hot paths: direct
// map assignment of a package-level slice instead of Header().Set, which
// allocates a fresh one-element slice per request. Handlers never mutate it.
var contentTypeJSON = []string{"application/json"}

func setContentTypeJSON(w http.ResponseWriter) {
	w.Header()["Content-Type"] = contentTypeJSON
}

// handleCheckBatch answers POST /v1/check: a JSON array of IP strings maps
// to a JSON array of verdicts in the same order. The body is size-bounded;
// a malformed entry fails the whole batch with a 400 naming it, so callers
// never have to guess which verdicts are real.
func (s *Server) handleCheckBatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBatchBytes)
	var ips []string
	if err := json.NewDecoder(r.Body).Decode(&ips); err != nil {
		code := http.StatusBadRequest
		msg := "malformed batch body: want a JSON array of IP strings"
		if _, tooLarge := err.(*http.MaxBytesError); tooLarge {
			code = http.StatusRequestEntityTooLarge
			msg = "batch body too large"
		}
		writeError(w, code, msg, err.Error())
		return
	}
	if len(ips) > MaxBatchIPs {
		// A client exceeding the documented entry limit sent an invalid
		// batch, not an oversized byte stream: answer 400 like every other
		// protocol violation, with the documented Error shape naming the
		// offending count. (413 stays reserved for MaxBatchBytes overruns,
		// which MaxBytesReader raises above.)
		writeError(w, http.StatusBadRequest, "too many addresses in batch",
			fmt.Sprintf("%d addresses exceed the limit of %d", len(ips), MaxBatchIPs))
		return
	}
	if s.Shed != nil && s.Shed.Degraded() {
		// Degraded mode clamps batch work, not batch validity: a batch that
		// would be fine normally gets a retryable 429 (with the clamp named),
		// never the 400 reserved for protocol violations above.
		if clamp := s.Shed.DegradedMaxBatch(); len(ips) > clamp {
			writeShedError(w, s.Shed, http.StatusTooManyRequests, "batch clamped in degraded mode",
				fmt.Sprintf("%d addresses exceed the degraded-mode limit of %d", len(ips), clamp))
			return
		}
	}
	snap := s.snap.Load()
	buf := make([]byte, 0, 32+128*len(ips))
	buf = append(buf, '[')
	for i, ipStr := range ips {
		addr, err := iputil.ParseAddr(ipStr)
		if err != nil {
			writeError(w, http.StatusBadRequest, "malformed ip in batch", ipStr)
			return
		}
		if i > 0 {
			buf = append(buf, ',')
		}
		// appendVerdict ends each object with json.Encoder's newline;
		// strip it inside the array.
		buf = snap.appendVerdict(buf, addr)
		buf = buf[:len(buf)-1]
	}
	buf = append(buf, ']', '\n')
	setContentTypeJSON(w)
	_, _ = w.Write(buf)
}

// servePrecomputed writes a compile-time body with ETag/If-None-Match
// revalidation and a pre-gzipped variant when the client asks for one.
// Every response — 200 or 304, compressed or not — carries
// Vary: Accept-Encoding: the representation depends on that request header,
// and without Vary a shared cache could hand the gzip variant to a client
// that refused it.
func servePrecomputed(w http.ResponseWriter, r *http.Request, pb *precomputedBody, contentType string) {
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("ETag", pb.etag)
	h.Set("Vary", "Accept-Encoding")
	if match := r.Header.Get("If-None-Match"); match != "" && etagMatches(match, pb.etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if pb.gz != nil && acceptsGzip(r) {
		h.Set("Content-Encoding", "gzip")
		_, _ = w.Write(pb.gz)
		return
	}
	_, _ = w.Write(pb.body)
}

// etagMatches implements the If-None-Match list: either "*" or any listed
// entity tag equal to ours (weak prefixes tolerated for revalidation).
func etagMatches(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

// acceptsGzip reports whether the Accept-Encoding header admits gzip. A
// quality of zero — in any of RFC 9110's spellings, "q=0", "q=0.0",
// "q=0.00", "q=0.000" — is a refusal.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		if enc != "gzip" && enc != "*" {
			continue
		}
		return !refusesQuality(params)
	}
	return false
}

// refusesQuality reports whether an encoding's parameters carry a zero
// quality weight. Only a literal zero refuses ("0" with any run of zero
// decimals); anything else — absent, positive, or malformed — accepts, per
// RFC 9110's "qvalue" grammar where the default weight is 1.
func refusesQuality(params string) bool {
	q := strings.TrimSpace(params)
	rest, ok := strings.CutPrefix(q, "q=")
	if !ok {
		rest, ok = strings.CutPrefix(q, "Q=")
	}
	if !ok || rest == "" || rest[0] != '0' {
		return false
	}
	frac := rest[1:]
	if frac == "" {
		return true
	}
	if frac[0] != '.' {
		return false
	}
	for _, c := range frac[1:] {
		if c != '0' {
			return false
		}
	}
	return true
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method not allowed", r.Method)
		return
	}
	if s.Shed != nil && s.Shed.Degraded() {
		s.serveDegraded(w, r, &s.snap.Load().list, "text/plain; charset=utf-8")
		return
	}
	servePrecomputed(w, r, &s.snap.Load().list, "text/plain; charset=utf-8")
}

func (s *Server) handlePrefixes(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method not allowed", r.Method)
		return
	}
	servePrecomputed(w, r, &s.snap.Load().prefixesB, "text/plain; charset=utf-8")
}

// Stats is the JSON answer of /v1/stats. An empty dataset is a valid,
// explicit answer — all counts zero and Empty true — not an error.
type Stats struct {
	NATedAddresses  int       `json:"nated_addresses"`
	DynamicPrefixes int       `json:"dynamic_prefixes"`
	MaxUsers        int       `json:"max_users"`
	Empty           bool      `json:"empty"`
	Generated       time.Time `json:"generated"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method not allowed", r.Method)
		return
	}
	setContentTypeJSON(w)
	_, _ = w.Write(s.snap.Load().stats.body)
}

// GreylistAnswer is the JSON answer of /v1/greylist: the check verdict plus
// the recommended mitigation for consumers that act on the list — greylist
// (tempfail) reused addresses with the given window, block the rest.
type GreylistAnswer struct {
	Verdict
	// Action is "tempfail" for reused addresses, "block" otherwise.
	Action string `json:"action"`
	// MinDelaySeconds / RetryWindowSeconds carry the greylisting window for
	// tempfail answers: reject retries earlier than the delay, accept one
	// inside the window.
	MinDelaySeconds    int64 `json:"min_delay_seconds,omitempty"`
	RetryWindowSeconds int64 `json:"retry_window_seconds,omitempty"`
	// Expires is when this recommendation should be re-evaluated (the
	// listing TTL for a greylisted reused address); nil, and absent from the
	// JSON, for block answers, which follow the consumer's standard feed
	// lifecycle.
	Expires *time.Time `json:"expires,omitempty"`
}

// handleGreylist answers GET /v1/greylist?ip=...: the snapshot verdict
// mapped through greylist.Config.Recommend. Same lookup cost as a single
// check; the JSON rendering is ordinary (this is an integration endpoint,
// not the hot path).
func (s *Server) handleGreylist(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method not allowed", r.Method)
		return
	}
	ipStr, ok := queryIP(r)
	if !ok || ipStr == "" {
		writeError(w, http.StatusBadRequest, "missing ip parameter", "")
		return
	}
	addr, err := iputil.ParseAddr(ipStr)
	if err != nil {
		writeError(w, http.StatusBadRequest, "malformed ip parameter", ipStr)
		return
	}
	now := time.Now().UTC()
	if s.now != nil {
		now = s.now()
	}
	v := s.snap.Load().Verdict(addr)
	rec := s.Greylist.Recommend(v.Reused, now)
	ans := GreylistAnswer{
		Verdict:            v,
		Action:             rec.Action.String(),
		MinDelaySeconds:    int64(rec.MinDelay / time.Second),
		RetryWindowSeconds: int64(rec.RetryWindow / time.Second),
	}
	if !rec.Expires.IsZero() {
		ans.Expires = &rec.Expires
	}
	setContentTypeJSON(w)
	_, _ = w.Write(encodeJSONLine(ans))
}

// Verdict computes the check answer for addr straight from the dataset —
// the uncompiled reference the snapshot path is tested against. It uses the
// PrefixSet's own longest-match probe (CoveringPrefix) where the snapshot
// uses the compiled trie.
func (d *Dataset) Verdict(addr iputil.Addr) Verdict {
	v := Verdict{IP: addr.String()}
	if users, ok := d.NATUsers[addr]; ok {
		v.Reused, v.NATed, v.Users = true, true, users
	}
	if p, ok := d.DynamicPrefixes.CoveringPrefix(addr); ok {
		v.Reused, v.Dynamic, v.Prefix = true, true, p.String()
	}
	switch {
	case v.NATed:
		v.Advice = adviceNATed
	case v.Dynamic:
		v.Advice = adviceDynamic
	default:
		v.Advice = adviceClean
	}
	return v
}

// SortedNATed returns the NATed addresses in order (for deterministic dumps).
func (d *Dataset) SortedNATed() []iputil.Addr {
	entries := sortedEntries(d.NATUsers)
	out := make([]iputil.Addr, len(entries))
	for i, e := range entries {
		out[i] = e.addr
	}
	return out
}
