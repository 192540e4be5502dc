// Package ripeatlas models RIPE Atlas probe connection logs and implements
// the paper's dynamic-address detection pipeline (§3.2).
//
// The paper observes probe measurement logs for 16 months and flags /24
// prefixes as dynamically allocated when a probe (1) was re-allocated
// addresses only within one AS, (2) went through at least K address
// allocations — K chosen by knee-point detection over the sorted per-probe
// allocation counts (Fig 2; K = 8 in the paper) — and (3) changed addresses
// at least daily on average.
//
// Because genuine RIPE Atlas logs cannot ship with this repository, the
// package also contains a probe-fleet simulator that emits logs with the
// same schema from configurable address-allocation policies.
package ripeatlas

import (
	"bufio"
	"cmp"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

// Event is a probe connection-log event type.
type Event uint8

// Connection-log event kinds. The zero Event is not a valid kind.
const (
	EventConnect Event = iota + 1
	EventDisconnect
)

// String returns the event's log spelling: "connect" or "disconnect".
func (e Event) String() string {
	switch e {
	case EventConnect:
		return "connect"
	case EventDisconnect:
		return "disconnect"
	}
	return "Event(" + strconv.Itoa(int(e)) + ")"
}

// LogEntry is one probe connection-log line: at UnixNano, probe ProbeID was
// seen (dis)connecting through Addr, which is originated by AS number ASN.
//
// A paper-scale world holds tens of millions of these, so the record holds
// no time.Time and no string: it is pointer-free and 24 bytes (8 of time,
// 4 each of probe, ASN and address, 1 of event, padding), and the garbage
// collector never scans it.
type LogEntry struct {
	// UnixNano is the event time in nanoseconds since the Unix epoch.
	UnixNano int64
	ProbeID  int32
	ASN      int32
	Addr     iputil.Addr
	Event    Event
}

// Time returns the entry's timestamp in UTC.
func (e LogEntry) Time() time.Time { return time.Unix(0, e.UnixNano).UTC() }

// The timestamps ReadLogs accepts: the int64-nanosecond range a LogEntry
// holds, starting at its first whole second so that every accepted entry
// survives WriteLogs' second-precision round trip.
var (
	minLogTime = time.Unix(math.MinInt64/int64(time.Second), 0)
	maxLogTime = time.Unix(0, math.MaxInt64)
)

// WriteLogs writes entries as CSV: RFC 3339 timestamp, probe ID, event,
// address, ASN.
func WriteLogs(w io.Writer, entries []LogEntry) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	for _, e := range entries {
		rec := []string{
			e.Time().Format(time.RFC3339),
			strconv.Itoa(int(e.ProbeID)),
			e.Event.String(),
			e.Addr.String(),
			strconv.Itoa(int(e.ASN)),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadLogs parses the CSV format produced by WriteLogs. Probe IDs and ASNs
// must fit in 32 bits, and timestamps must lie between 1677-09-21T00:12:44Z
// and 2262-04-11T23:47:16Z, the whole seconds of the int64-nanosecond range.
func ReadLogs(r io.Reader) ([]LogEntry, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 5
	var out []LogEntry
	for line := 1; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		ts, err := time.Parse(time.RFC3339, rec[0])
		if err != nil {
			return nil, fmt.Errorf("ripeatlas: line %d: bad timestamp: %w", line, err)
		}
		if ts.Before(minLogTime) || ts.After(maxLogTime) {
			return nil, fmt.Errorf("ripeatlas: line %d: timestamp %s outside %s..%s",
				line, rec[0], minLogTime.UTC().Format(time.RFC3339), maxLogTime.UTC().Format(time.RFC3339))
		}
		probe, err := strconv.ParseInt(rec[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("ripeatlas: line %d: bad probe ID: %w", line, err)
		}
		var ev Event
		switch rec[2] {
		case EventConnect.String():
			ev = EventConnect
		case EventDisconnect.String():
			ev = EventDisconnect
		default:
			return nil, fmt.Errorf("ripeatlas: line %d: unknown event %q", line, rec[2])
		}
		addr, err := iputil.ParseAddr(rec[3])
		if err != nil {
			return nil, fmt.Errorf("ripeatlas: line %d: %w", line, err)
		}
		asn, err := strconv.ParseInt(rec[4], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("ripeatlas: line %d: bad ASN: %w", line, err)
		}
		out = append(out, LogEntry{
			UnixNano: ts.UnixNano(), ProbeID: int32(probe), ASN: int32(asn), Addr: addr, Event: ev,
		})
	}
	return out, nil
}

// compareLogs is the log order: time, then probe ID. It leaves entries of
// one probe at one instant tied.
func compareLogs(a, b LogEntry) int {
	if c := cmp.Compare(a.UnixNano, b.UnixNano); c != 0 {
		return c
	}
	return cmp.Compare(a.ProbeID, b.ProbeID)
}

// SortLogs orders entries by timestamp, then probe ID, in place. The sort
// is stable: entries that tie on both keep their input order.
//
// It is a distribution sort on time, linear for logs whose timestamps are
// spread out, as every probe log is. One pass counts the entries per time
// bucket (about one bucket per four entries, each a power-of-two span of
// nanoseconds), a second scatters them in input order into a new buffer,
// and each bucket, a handful of entries, is then sorted stably on its own.
// Scattering in input order is what makes the whole sort stable; a log
// whose timestamps all coincide degrades to one stable sort of everything.
func SortLogs(entries []LogEntry) {
	n := len(entries)
	if n < 2 {
		return
	}
	lo, hi := entries[0].UnixNano, entries[0].UnixNano
	for _, e := range entries[1:] {
		lo, hi = min(lo, e.UnixNano), max(hi, e.UnixNano)
	}
	// bucketOf(e) = (e.UnixNano - lo) >> shift, below 2^bits.Len(n/4). The
	// subtraction is done in uint64, where it cannot overflow.
	shift := max(0, bits.Len64(uint64(hi)-uint64(lo))-bits.Len(uint(n/4)))
	bucketOf := func(e LogEntry) uint64 { return (uint64(e.UnixNano) - uint64(lo)) >> shift }
	// next[b] is where bucket b's next entry goes; it starts as the count
	// of entries in the buckets before b.
	next := make([]int, bucketOf(LogEntry{UnixNano: hi})+2)
	for _, e := range entries {
		next[bucketOf(e)+1]++
	}
	for b := 1; b < len(next); b++ {
		next[b] += next[b-1]
	}
	out := make([]LogEntry, n)
	for _, e := range entries {
		b := bucketOf(e)
		out[next[b]] = e
		next[b]++
	}
	// Each next[b] now ends bucket b.
	start := 0
	for _, end := range next[:len(next)-1] {
		if end-start > 1 {
			slices.SortStableFunc(out[start:end], compareLogs)
		}
		start = end
	}
	copy(entries, out)
}
