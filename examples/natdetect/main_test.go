package main

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRunConfirmsCGN runs the example and requires the crawler to confirm
// the CGN it builds with all three of its BitTorrent users.
func TestRunConfirmsCGN(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`NATed address 100\.64\.7\.1: ≥(\d+) simultaneous users`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("the CGN was not confirmed:\n%s", out.String())
	}
	if users, _ := strconv.Atoi(m[1]); users < 3 {
		t.Errorf("CGN confirmed with ≥%d users, want ≥3:\n%s", users, out.String())
	}
}
