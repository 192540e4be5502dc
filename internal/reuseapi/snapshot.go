package reuseapi

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

// Snapshot is the immutable compiled form of a Dataset: everything the
// request handlers need, computed once at build (or Update) time so the hot
// paths never sort, hash-probe per prefix length, or render a body under a
// request. Lookups run against a sorted address array (binary search) and a
// compiled longest-prefix-match trie; the full-body endpoints serve
// precomputed bytes with strong ETags and a pre-gzipped variant.
//
// A Snapshot is never mutated after Compile returns, so the Server can hand
// the same pointer to any number of concurrent requests and swap datasets
// with a single atomic store.
type Snapshot struct {
	generated time.Time

	// NAT lookup: natAddrs is sorted ascending, natUsers is parallel.
	natAddrs []iputil.Addr
	natUsers []int
	maxUsers int
	// nat16, when built, buckets natAddrs by the top 16 address bits:
	// nat16[h] is the first index whose address has high half >= h, so a
	// lookup binary-searches only its own (typically 0–3 entry) bucket
	// instead of cache-missing across the whole array.
	nat16 []int32

	// Dynamic-prefix lookup: a compiled trie answering longest-prefix
	// match in ≤32 node walks, plus the rendered form of each member so
	// the verdict encoder never calls Prefix.String per request.
	prefixes *iputil.Table[compiledPrefix]
	// sortedPrefixes is the trie's member list in render order (base, then
	// bits), retained so ApplyDelta can merge a successor list without
	// re-walking the trie.
	sortedPrefixes []iputil.Prefix
	nDynamic       int

	list      precomputedBody
	prefixesB precomputedBody
	stats     precomputedBody
}

// compiledPrefix is a trie value: the prefix plus its pre-rendered CIDR text.
type compiledPrefix struct {
	cidr string
}

// precomputedBody is one endpoint's response, rendered at compile time.
//
// The body is assembled from ordered segments, each compressed as an
// independent gzip member (a gzip stream is a concatenation of members, and
// both Go's gzip.Reader and browsers decode multistream bodies
// transparently). Compression dominates Compile, so members come from
// pooled writers at gzipLevel (see gzipMember). Segments are retained so
// ApplyDelta can re-render and recompress only the segments a delta touches
// and splice the cached members of the rest; that saving is large only when
// the edit is clustered in a few top bytes, since scattered churn touches
// every segment.
type precomputedBody struct {
	body []byte
	gz   []byte        // concatenated gzip members of body; nil when gzip would not help
	etag string        // strong ETag, quoted
	segs []bodySegment // ordered segments body/gz were assembled from
}

// bodySegment is one independently compressed slice of an endpoint body:
// the header line (key segKeyHeader), the whole line run of a small body
// (key segKeyWhole), or the run of lines whose address top byte is key.
// Top-byte runs are contiguous in both render orders (addresses sort
// ascending; prefixes sort by base then bits), so segment order is simply
// ascending key.
type bodySegment struct {
	key  int
	body []byte
	gz   []byte // this segment's gzip member; filled by precomputeSegments
}

const (
	segKeyHeader = -1
	segKeyWhole  = -2
)

// Per-top-byte segmentation only pays once the body is large: every gzip
// member costs ~20 bytes of framing and loses the cross-segment dictionary,
// so below these line counts the whole body compresses as a single member
// (byte-identical to the pre-segmentation compiler). The layout rule is a
// pure function of the line count, so a delta compile and a full compile of
// the same data always pick the same layout.
const (
	listSegMin   = 4096
	prefixSegMin = 512
)

// Compile builds the snapshot for data. data must already be normalized.
func Compile(data *Dataset) *Snapshot {
	s := &Snapshot{generated: data.Generated}

	entries := sortedEntries(data.NATUsers)
	s.natAddrs = make([]iputil.Addr, len(entries))
	s.natUsers = make([]int, len(entries))
	for i, e := range entries {
		s.natAddrs[i], s.natUsers[i] = e.addr, e.users
		if e.users > s.maxUsers {
			s.maxUsers = e.users
		}
	}

	// Index the high halves once the array is big enough that a whole-array
	// binary search starts cache-missing; small datasets don't need it.
	if len(s.natAddrs) >= 1024 {
		s.nat16 = buildNAT16(s.natAddrs)
	}

	s.prefixes = iputil.NewTable[compiledPrefix]()
	s.sortedPrefixes = data.DynamicPrefixes.Sorted()
	s.nDynamic = len(s.sortedPrefixes)
	for _, p := range s.sortedPrefixes {
		s.prefixes.Insert(p, compiledPrefix{cidr: p.String()})
	}

	s.list = precomputeSegments(renderListSegments(s.generated, s.natAddrs))
	s.prefixesB = precomputeSegments(renderPrefixesSegments(s.generated, s.sortedPrefixes))
	s.stats = precomputeSegments([]bodySegment{{key: segKeyWhole, body: renderStats(s)}})
	return s
}

// renderListSegments produces the /v1/list body split at address top-byte
// boundaries. Concatenated, the segments are byte-identical to what the
// pre-snapshot server rendered per request with blocklist.WritePlain
// ("# header\n" then one dotted quad per line in ascending order).
func renderListSegments(generated time.Time, sorted []iputil.Addr) []bodySegment {
	segs := []bodySegment{{key: segKeyHeader, body: []byte(fmt.Sprintf(
		"# NATed reused addresses, generated %s\n", generated.UTC().Format(time.RFC3339)))}}
	if len(sorted) == 0 {
		return segs
	}
	if len(sorted) < listSegMin {
		return append(segs, bodySegment{key: segKeyWhole, body: renderAddrRun(sorted)})
	}
	for i := 0; i < len(sorted); {
		top := int(sorted[i] >> 24)
		j := i
		for j < len(sorted) && int(sorted[j]>>24) == top {
			j++
		}
		segs = append(segs, bodySegment{key: top, body: renderAddrRun(sorted[i:j])})
		i = j
	}
	return segs
}

// renderAddrRun renders one address per line, WritePlain-style.
func renderAddrRun(addrs []iputil.Addr) []byte {
	buf := make([]byte, 0, len(addrs)*16)
	for _, a := range addrs {
		buf = appendAddr(buf, a)
		buf = append(buf, '\n')
	}
	return buf
}

// renderPrefixesSegments produces the /v1/prefixes body split at base-address
// top-byte boundaries; PrefixSet.Sorted orders by base then bits, so each
// top byte's prefixes form one contiguous run.
func renderPrefixesSegments(generated time.Time, sorted []iputil.Prefix) []bodySegment {
	segs := []bodySegment{{key: segKeyHeader, body: []byte(fmt.Sprintf(
		"# dynamic prefixes, generated %s\n", generated.UTC().Format(time.RFC3339)))}}
	if len(sorted) == 0 {
		return segs
	}
	if len(sorted) < prefixSegMin {
		return append(segs, bodySegment{key: segKeyWhole, body: renderPrefixRun(sorted)})
	}
	for i := 0; i < len(sorted); {
		top := int(sorted[i].Base() >> 24)
		j := i
		for j < len(sorted) && int(sorted[j].Base()>>24) == top {
			j++
		}
		segs = append(segs, bodySegment{key: top, body: renderPrefixRun(sorted[i:j])})
		i = j
	}
	return segs
}

// renderPrefixRun renders one CIDR per line.
func renderPrefixRun(ps []iputil.Prefix) []byte {
	var buf bytes.Buffer
	for _, p := range ps {
		fmt.Fprintln(&buf, p)
	}
	return buf.Bytes()
}

// renderStats produces the /v1/stats body (JSON object plus the trailing
// newline json.Encoder emits).
func renderStats(s *Snapshot) []byte {
	st := Stats{
		NATedAddresses:  len(s.natAddrs),
		DynamicPrefixes: s.nDynamic,
		MaxUsers:        s.maxUsers,
		Generated:       s.generated,
	}
	st.Empty = st.NATedAddresses == 0 && st.DynamicPrefixes == 0
	return encodeJSONLine(st)
}

// precomputeSegments assembles segments into a served body: any segment
// without a cached gzip member is compressed (a full Compile compresses all
// of them; ApplyDelta only the touched ones), the segment bodies and members
// are concatenated, and the ETag is derived from the assembled bytes. Since
// every member is compressed independently with the same settings, the same
// segment content yields the same bytes whichever path built it — that is
// the delta-equivalence guarantee.
func precomputeSegments(segs []bodySegment) precomputedBody {
	nBody, nGz := 0, 0
	for i := range segs {
		if segs[i].gz == nil {
			segs[i].gz = gzipMember(segs[i].body)
			// Pooled compression seldom reaches a point where the scheduler
			// switches goroutines, so without a yield a reload keeps its P
			// until the runtime's 10 ms preemption tick and requests queued
			// behind it wait that long (DESIGN.md §9).
			runtime.Gosched()
		}
		nBody += len(segs[i].body)
		nGz += len(segs[i].gz)
	}
	body := make([]byte, 0, nBody)
	gz := make([]byte, 0, nGz)
	for i := range segs {
		body = append(body, segs[i].body...)
		gz = append(gz, segs[i].gz...)
	}
	sum := sha256.Sum256(body)
	pb := precomputedBody{
		body: body,
		etag: `"` + hex.EncodeToString(sum[:16]) + `"`,
		segs: segs,
	}
	// Only keep the compressed variant when it actually saves bytes;
	// tiny bodies gzip larger than they start.
	if len(gz) < len(body) {
		pb.gz = gz
	}
	return pb
}

// gzipLevel is the compression level of every gzip member. On these
// line-per-entry bodies level 5 is the knee: its members are within 0.1%
// of level 6's (themselves within a few bytes of level 9's) for about a
// third less CPU, while level 4 gives up over 5% (DESIGN.md §9).
const gzipLevel = 5

// gzipWriters recycles gzip writers between members: a writer carries
// about a megabyte of compressor state, which a fresh writer per segment
// would allocate on every compile.
var gzipWriters = sync.Pool{
	New: func() any {
		w, _ := gzip.NewWriterLevel(nil, gzipLevel)
		return w
	},
}

// gzipMember compresses b as one complete gzip member. Reset returns a
// pooled writer to its NewWriterLevel state, so the member is byte-identical
// to one from a fresh writer.
func gzipMember(b []byte) []byte {
	var gz bytes.Buffer
	w := gzipWriters.Get().(*gzip.Writer)
	w.Reset(&gz)
	_, _ = w.Write(b)
	_ = w.Close()
	gzipWriters.Put(w)
	return gz.Bytes()
}

// Precomputed is the exported view of one endpoint's compiled response, for
// tests pinning the delta-compile equivalence byte-for-byte.
type Precomputed struct {
	Body []byte
	Gzip []byte // nil when the identity body is served uncompressed only
	ETag string
}

// PrecomputedBodies returns the full-body endpoints' compiled artifacts
// keyed by endpoint name ("list", "prefixes", "stats").
func (s *Snapshot) PrecomputedBodies() map[string]Precomputed {
	out := make(map[string]Precomputed, 3)
	for name, pb := range map[string]precomputedBody{
		"list": s.list, "prefixes": s.prefixesB, "stats": s.stats,
	} {
		out[name] = Precomputed{Body: pb.body, Gzip: pb.gz, ETag: pb.etag}
	}
	return out
}

// NATedAddresses returns the number of served NATed addresses.
func (s *Snapshot) NATedAddresses() int { return len(s.natAddrs) }

// DynamicPrefixes returns the number of served dynamic prefixes.
func (s *Snapshot) DynamicPrefixes() int { return s.nDynamic }

// Generated returns the dataset build time.
func (s *Snapshot) Generated() time.Time { return s.generated }

// lookupNAT binary-searches the sorted address array, narrowed to the
// address's /16 bucket when the nat16 index was built.
func (s *Snapshot) lookupNAT(a iputil.Addr) (users int, ok bool) {
	lo, hi := 0, len(s.natAddrs)
	if s.nat16 != nil {
		lo, hi = int(s.nat16[a>>16]), int(s.nat16[a>>16+1])
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.natAddrs[mid] < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.natAddrs) && s.natAddrs[lo] == a {
		return s.natUsers[lo], true
	}
	return 0, false
}

// Advice strings mirror the paper's Section 6 guidance; they are constants so
// the verdict encoder can append them without allocation.
const (
	adviceNATed   = "shared address: prefer greylisting/challenges over hard blocking (except DDoS)"
	adviceDynamic = "dynamically allocated: listing likely outlives the abuser; use short TTLs or greylisting"
	adviceClean   = "no reuse evidence: standard blocklist handling applies"
)

// Verdict computes the check answer for addr — the reference form used by
// the batch endpoint and by tests; the single-check hot path uses
// appendVerdict to produce the same bytes without allocating.
func (s *Snapshot) Verdict(addr iputil.Addr) Verdict {
	v := Verdict{IP: addr.String()}
	if users, ok := s.lookupNAT(addr); ok {
		v.Reused, v.NATed, v.Users = true, true, users
	}
	if cp, ok := s.prefixes.Lookup(addr); ok {
		v.Reused, v.Dynamic, v.Prefix = true, true, cp.cidr
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

// appendVerdict appends the JSON encoding of the verdict for addr to buf,
// byte-identical to encoding/json of Verdict followed by the '\n' that
// json.Encoder emits. Everything appended is either a constant, a digit run,
// or a pre-rendered CIDR string, so the append never escapes and never
// allocates beyond buf growth (which a pooled buffer amortises to zero).
func (s *Snapshot) appendVerdict(buf []byte, addr iputil.Addr) []byte {
	users, nated := s.lookupNAT(addr)
	cp, dynamic := s.prefixes.Lookup(addr)

	buf = append(buf, `{"ip":"`...)
	buf = appendAddr(buf, addr)
	buf = append(buf, `","reused":`...)
	buf = strconv.AppendBool(buf, nated || dynamic)
	buf = append(buf, `,"nated":`...)
	buf = strconv.AppendBool(buf, nated)
	buf = append(buf, `,"dynamic":`...)
	buf = strconv.AppendBool(buf, dynamic)
	if nated && users != 0 {
		buf = append(buf, `,"users":`...)
		buf = strconv.AppendInt(buf, int64(users), 10)
	}
	if dynamic {
		buf = append(buf, `,"prefix":"`...)
		buf = append(buf, cp.cidr...)
		buf = append(buf, '"')
	}
	buf = append(buf, `,"advice":"`...)
	switch {
	case nated:
		buf = append(buf, adviceNATed...)
	case dynamic:
		buf = append(buf, adviceDynamic...)
	default:
		buf = append(buf, adviceClean...)
	}
	buf = append(buf, '"', '}', '\n')
	return buf
}

// appendAddr appends dotted-quad notation without allocating. Each octet
// is copied from a table of the 256 decimal forms rather than formatted,
// which halves the cost of rendering a list body.
func appendAddr(buf []byte, a iputil.Addr) []byte {
	buf = append(buf, octets[a>>24]...)
	buf = append(buf, '.')
	buf = append(buf, octets[a>>16&0xff]...)
	buf = append(buf, '.')
	buf = append(buf, octets[a>>8&0xff]...)
	buf = append(buf, '.')
	return append(buf, octets[a&0xff]...)
}

// octets holds the decimal text of every byte value.
var octets = func() (t [256]string) {
	for i := range t {
		t[i] = strconv.Itoa(i)
	}
	return t
}()

// verdictBufPool recycles the per-request verdict buffers so the check hot
// path allocates nothing in steady state.
var verdictBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}
