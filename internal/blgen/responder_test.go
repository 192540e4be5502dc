package blgen

import (
	"strings"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

// respondsOracle is the per-address responder World used before answers
// were resolved per block: one prefix-table walk and one kind switch per
// probe. It stays as the reference World.Block must reproduce exactly.
func respondsOracle(w *World, addr iputil.Addr, at time.Time) bool {
	pi, ok := w.PrefixOf(addr)
	if !ok || pi.ICMPFiltered {
		return false
	}
	host := int(addr) & 0xff
	switch pi.Kind {
	case KindServer:
		return host >= 1 && host <= 128
	case KindStatic:
		if host < 1 || host > staticHostsPerPrefix {
			return false
		}
		return hashMix(uint64(addr), 0)%10 < 9
	case KindCGN:
		return host >= 1 && host <= w.Params.GatewaysPerCGNPrefix
	case KindDynamic:
		if host < 1 || host > 254 {
			return false
		}
		lease := time.Duration(pi.MeanLeaseHours) * time.Hour
		slot := uint64(at.Sub(w.RIPEStart) / lease)
		occupied := float64(hashMix(uint64(addr), slot)%1000) / 1000
		return occupied < dynamicOccupancy
	default:
		return false
	}
}

// surveyTimes returns a probe time every 30 minutes over 3 days. For a
// dynamic pool the window is centred on a lease boundary, so every pool —
// six-hour leases and months-long ones alike — changes lease slot inside
// it; other prefixes are probed a month into the RIPE window.
func surveyTimes(w *World, pi *PrefixInfo) []time.Time {
	const half = 36 * time.Hour
	first := w.RIPEStart.Add(30*24*time.Hour - half)
	if pi != nil && pi.Kind == KindDynamic {
		lease := time.Duration(pi.MeanLeaseHours) * time.Hour
		boundary := w.RIPEStart.Add(lease * (1 + half/lease))
		first = boundary.Add(-half)
	}
	var out []time.Time
	for at := first; at.Before(first.Add(2 * half)); at = at.Add(30 * time.Minute) {
		out = append(out, at)
	}
	return out
}

// TestBlockMatchesPerAddressOracle: the per-block responder answers exactly
// as the per-address oracle for every host of every world prefix, across
// lease boundaries, for ICMP-filtered prefixes and outside the world — and
// for blocks narrower than a /24.
func TestBlockMatchesPerAddressOracle(t *testing.T) {
	w := Generate(TestParams(3))
	kinds := map[PrefixKind]int{}
	filtered, crossed := 0, 0
	check := func(block iputil.Prefix, pi *PrefixInfo) {
		t.Helper()
		responds := w.Block(block)
		times := surveyTimes(w, pi)
		if pi != nil && pi.Kind == KindDynamic {
			lease := time.Duration(pi.MeanLeaseHours) * time.Hour
			if times[0].Sub(w.RIPEStart)/lease != times[len(times)-1].Sub(w.RIPEStart)/lease {
				crossed++
			}
		}
		for k, at := range times {
			for i := 0; i < block.Size(); i++ {
				a := block.Nth(i)
				want := respondsOracle(w, a, at)
				if got, _ := responds(a, at); got != want {
					t.Fatalf("Block(%v)(%v, %v) = %v, oracle %v (prefix %+v)", block, a, at, got, want, pi)
				}
				// Responds is a delegate; one time per block pins it.
				if k == 0 && w.Responds(a, at) != want {
					t.Fatalf("Responds(%v, %v) disagrees with the oracle", a, at)
				}
			}
		}
	}
	dynamic := 0
	for _, as := range w.ASes {
		for i := range as.Prefixes {
			pi := &as.Prefixes[i]
			kinds[pi.Kind]++
			if pi.ICMPFiltered {
				filtered++
			}
			if pi.Kind == KindDynamic {
				dynamic++
			}
			check(pi.Prefix, pi)
		}
	}
	for _, k := range []PrefixKind{KindStatic, KindDynamic, KindCGN, KindServer} {
		if kinds[k] == 0 {
			t.Errorf("test world has no prefix of kind %v", k)
		}
	}
	if filtered == 0 {
		t.Error("test world has no ICMP-filtered prefix")
	}
	if crossed != dynamic {
		t.Errorf("%d of %d dynamic pools crossed a lease boundary, want all", crossed, dynamic)
	}

	// Outside the world: unrelated space and the /24 just past each AS's
	// last prefix, where a lookup walks deep into the trie before failing.
	outside := []iputil.Prefix{iputil.MustParsePrefix("8.8.8.0/24"), iputil.MustParsePrefix("0.0.0.0/24")}
	for _, as := range w.ASes {
		if n := len(as.Prefixes); n > 0 {
			next := as.Prefixes[n-1].Prefix.Base() + 256
			if _, ok := w.PrefixOf(next); !ok {
				outside = append(outside, next.Slash24())
			}
		}
	}
	for _, p := range outside {
		check(p, nil)
	}

	// Narrower blocks resolve to their covering /24's policy.
	for _, as := range w.ASes[:3] {
		pi := &as.Prefixes[0]
		check(iputil.PrefixFrom(pi.Prefix.Base()+128, 25), pi)
		check(iputil.PrefixFrom(pi.Prefix.Base()+7, 32), pi)
	}
}

// TestBlockPanicsOnWiderBlock: a block wider than a /24 may span prefixes
// with different policies, so Block refuses it loudly.
func TestBlockPanicsOnWiderBlock(t *testing.T) {
	w := Generate(TestParams(1))
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "/24") || !strings.Contains(msg, "10.0.0.0/23") {
			t.Fatalf("recovered %v, want a panic naming the /24 limit and the block", r)
		}
	}()
	w.Block(iputil.MustParsePrefix("10.0.0.0/23"))
}

// TestBlockPromiseHolds: every answer between at and the promised until
// equals the answer at at, for every host of every prefix kind, before and
// after RIPEStart. Promises are exact: a dynamic pool's answer is promised
// to the end of its lease slot and no further, every other answer forever.
func TestBlockPromiseHolds(t *testing.T) {
	w := Generate(TestParams(1))
	kinds := map[PrefixKind]int{}
	slot := func(pi *PrefixInfo, at time.Time) time.Duration {
		return at.Sub(w.RIPEStart) / (time.Duration(pi.MeanLeaseHours) * time.Hour)
	}
	check := func(block iputil.Prefix, pi *PrefixInfo) {
		t.Helper()
		responds := w.Block(block)
		offsets := []time.Duration{-90 * 24 * time.Hour, -36*time.Hour - 7*time.Minute, -time.Nanosecond, 0, 29 * time.Hour, 45 * 24 * time.Hour}
		if pi != nil && pi.Kind == KindDynamic {
			// Before RIPEStart, truncating division makes slot 0 span
			// (-lease, +lease); probe both of its ends and the slot below.
			lease := time.Duration(pi.MeanLeaseHours) * time.Hour
			offsets = append(offsets, -3*lease-time.Hour, -lease-time.Nanosecond, -lease, -lease+time.Nanosecond, lease-time.Nanosecond, lease)
		}
		for _, off := range offsets {
			at := w.RIPEStart.Add(off)
			for i := 0; i < block.Size(); i++ {
				a := block.Nth(i)
				up, until := responds(a, at)
				if want := respondsOracle(w, a, at); up != want {
					t.Fatalf("%v at %v: answer %v, oracle %v", a, at, up, want)
				}
				dynamicHost := pi != nil && !pi.ICMPFiltered && pi.Kind == KindDynamic && a&0xff >= 1 && a&0xff <= 254
				end := until
				if until.IsZero() {
					if dynamicHost {
						t.Fatalf("dynamic host %v at %v promised forever", a, at)
					}
					end = at.Add(3 * 365 * 24 * time.Hour)
				} else {
					if !dynamicHost {
						t.Fatalf("%v (prefix %+v) at %v promised only until %v", a, pi, at, until)
					}
					if !until.After(at) {
						t.Fatalf("%v at %v promised until %v, not after at", a, at, until)
					}
					if slot(pi, until) == slot(pi, at) || slot(pi, until.Add(-1)) != slot(pi, at) {
						t.Fatalf("%v at %v promised until %v, not its lease slot's end", a, at, until)
					}
				}
				span := end.Sub(at)
				for k := int64(1); k <= 16; k++ {
					probe := at.Add(time.Duration(int64(span) / 17 * k))
					if respondsOracle(w, a, probe) != up {
						t.Fatalf("%v: answer at %v differs from the one promised at %v until %v", a, probe, at, until)
					}
				}
				if respondsOracle(w, a, end.Add(-1)) != up {
					t.Fatalf("%v: answer just before %v differs from the one promised at %v", a, end, at)
				}
			}
		}
	}
	for _, as := range w.ASes {
		for i := range as.Prefixes {
			pi := &as.Prefixes[i]
			kinds[pi.Kind]++
			check(pi.Prefix, pi)
		}
	}
	for _, k := range []PrefixKind{KindStatic, KindDynamic, KindCGN, KindServer, KindUnused} {
		if kinds[k] == 0 {
			t.Errorf("test world has no prefix of kind %v", k)
		}
	}
	check(iputil.MustParsePrefix("8.8.8.0/24"), nil)
}
