package main

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

// shardSpec names one member of an N-way partition of the crawl scope:
// shard I of N, 1-based as -shard writes it. Addresses are assigned by
// uint32(addr) mod N, so for a fixed N the shards form an exact cover of the
// address space: every address is in exactly one shard.
type shardSpec struct {
	Index int // 1-based: 1 <= Index <= N
	N     int
}

// String renders the spec in the form -shard parses.
func (s shardSpec) String() string { return fmt.Sprintf("%d/%d", s.Index, s.N) }

// parseShard parses a -shard value: empty means the whole scope (1/1),
// otherwise "I/N" with 1 <= I <= N. Malformed strings, I < 1, N < 1 and
// I > N are rejected: a crawl of the wrong scope would silently hole a
// dataset assembled from shard outputs.
func parseShard(s string) (shardSpec, error) {
	if s == "" {
		return shardSpec{Index: 1, N: 1}, nil
	}
	is, ns, ok := strings.Cut(s, "/")
	var idx, n int
	var err error
	if ok {
		idx, err = strconv.Atoi(is)
		if err == nil {
			n, err = strconv.Atoi(ns)
		}
	}
	if !ok || err != nil || n < 1 || idx < 1 || idx > n {
		return shardSpec{}, fmt.Errorf("invalid -shard %q: want I/N with 1 <= I <= N", s)
	}
	return shardSpec{Index: idx, N: n}, nil
}

// covers reports whether a falls in this shard of the partition.
func (s shardSpec) covers(a iputil.Addr) bool {
	return int(uint32(a)%uint32(s.N)) == s.Index-1
}

// whole reports whether the spec is the trivial 1/1 partition.
func (s shardSpec) whole() bool { return s.N <= 1 }

// scope composes the shard onto a crawl scope: an address is probed when the
// scope admits it and the shard owns it. The bootstrap address stays in
// every shard's scope — a scope-restricted crawler could otherwise never
// take its first step — which is the partition's single, deliberate overlap.
func (s shardSpec) scope(scope func(iputil.Addr) bool, bootstrap iputil.Addr) func(iputil.Addr) bool {
	if s.whole() {
		return scope
	}
	return func(a iputil.Addr) bool {
		if scope != nil && !scope(a) {
			return false
		}
		return a == bootstrap || s.covers(a)
	}
}
