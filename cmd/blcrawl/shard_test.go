package main

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

func TestParseShard(t *testing.T) {
	cases := []struct {
		in      string
		want    shardSpec
		wantErr bool
	}{
		{"", shardSpec{1, 1}, false},
		{"1/1", shardSpec{1, 1}, false},
		{"1/4", shardSpec{1, 4}, false},
		{"4/4", shardSpec{4, 4}, false},
		{"0/4", shardSpec{}, true},
		{"5/4", shardSpec{}, true},
		{"-1/4", shardSpec{}, true},
		{"1/0", shardSpec{}, true},
		{"1/-2", shardSpec{}, true},
		{"nonsense", shardSpec{}, true},
		{"1", shardSpec{}, true},
		{"/", shardSpec{}, true},
		{"1/2/3", shardSpec{}, true},
	}
	for _, c := range cases {
		got, err := parseShard(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("parseShard(%q): err = %v, wantErr = %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("parseShard(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseShardRoundTrip(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for i := 1; i <= n; i++ {
			spec := shardSpec{Index: i, N: n}
			back, err := parseShard(spec.String())
			if err != nil {
				t.Fatalf("parseShard(%q): %v", spec.String(), err)
			}
			if back != spec {
				t.Fatalf("round trip %+v -> %q -> %+v", spec, spec.String(), back)
			}
		}
	}
}

// TestShardPartitionProperty pins the load-bearing invariant of -shard: for
// any N, the scopes of shards 1/N through N/N partition the crawl scope
// exactly — every in-scope address lands in exactly one shard (no hole, no
// overlap), except the bootstrap, which deliberately appears in every
// shard's scope.
func TestShardPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	scopeLo := iputil.MustParseAddr("60.0.0.0")
	scopeHi := iputil.MustParseAddr("60.0.255.255")
	scope := func(a iputil.Addr) bool { return a >= scopeLo && a <= scopeHi }
	bootstrap := iputil.MustParseAddr("60.0.7.1")

	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
		// Derive each scope from the -shard flag form, the path blcrawl
		// takes.
		scopes := make([]func(iputil.Addr) bool, n)
		for i := range scopes {
			flag := fmt.Sprintf("%d/%d", i+1, n)
			sh, err := parseShard(flag)
			if err != nil {
				t.Fatalf("parseShard(%q): %v", flag, err)
			}
			scopes[i] = sh.scope(scope, bootstrap)
		}

		// 2k random in-scope addresses plus the boundary cases.
		probe := []iputil.Addr{scopeLo, scopeHi, bootstrap, bootstrap + 1, bootstrap - 1}
		for len(probe) < 2005 {
			off := rng.Intn(int(scopeHi - scopeLo + 1))
			probe = append(probe, scopeLo+iputil.Addr(off))
		}
		for _, a := range probe {
			owners := 0
			for _, cover := range scopes {
				if cover(a) {
					owners++
				}
			}
			switch {
			case a == bootstrap:
				if owners != n {
					t.Fatalf("N=%d: bootstrap %s in %d shards, want all %d", n, a, owners, n)
				}
			default:
				if owners != 1 {
					t.Fatalf("N=%d: address %s in %d shards, want exactly 1", n, a, owners)
				}
			}
		}

		// Out-of-scope addresses belong to no shard.
		for _, a := range []iputil.Addr{scopeLo - 1, scopeHi + 1, iputil.MustParseAddr("10.0.0.1")} {
			for i, cover := range scopes {
				if cover(a) {
					t.Fatalf("N=%d: out-of-scope %s admitted by shard %d", n, a, i+1)
				}
			}
		}
	}
}

func TestShardScopeWholeIsIdentity(t *testing.T) {
	scope := func(a iputil.Addr) bool { return a%2 == 0 }
	sh := shardSpec{Index: 1, N: 1}
	got := sh.scope(scope, iputil.MustParseAddr("1.2.3.4"))
	for _, a := range []iputil.Addr{0, 1, 2, 3, 100, 101} {
		if got(a) != scope(a) {
			t.Fatalf("1/1 shard scope diverged from base scope at %v", a)
		}
	}
}
