package blocklist

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzParseNATedList: any input is either rejected, or parses to counts of
// at least 2 that WriteNATedList → ParseNATedList reproduces exactly.
func FuzzParseNATedList(f *testing.F) {
	for _, seed := range []string{
		"# crawl output\n100.64.0.1\n100.64.0.2\t5\n100.64.0.3\tusers>=78\tports=90\n100.64.0.4\tbanana\n",
		"100.64.0.1\n",
		"100.64.0.2\t5\n",
		"100.64.0.3 users>=78 ports=90\n",
		"100.64.0.4\tbanana\n",
		"100.64.0.5\t1\n100.64.0.5\t9\n",
		"not-an-ip\n",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		m, err := ParseNATedList(strings.NewReader(in))
		if err != nil {
			return
		}
		for a, n := range m {
			if n < 2 {
				t.Fatalf("%v parsed with %d users, below the minimum of 2", a, n)
			}
		}
		var buf bytes.Buffer
		if err := WriteNATedList(&buf, m, "fuzz"); err != nil {
			t.Fatal(err)
		}
		back, err := ParseNATedList(&buf)
		if err != nil {
			t.Fatalf("written list does not reparse: %v", err)
		}
		if len(back) != len(m) {
			t.Fatalf("round trip has %d entries, want %d", len(back), len(m))
		}
		for a, n := range m {
			if back[a] != n {
				t.Fatalf("%v round-tripped to %d users, want %d", a, back[a], n)
			}
		}
	})
}

// FuzzParsePrefixList: any input is either rejected, or parses to a set
// that writing one p.String() per line and re-parsing reproduces exactly.
func FuzzParsePrefixList(f *testing.F) {
	for _, seed := range []string{
		"# prefixes\n10.0.0.0/24\n192.0.2.0/24\n",
		"10.0.0.0/99\n",
		"10.0.0.7/24\n10.0.0.0/24\n",
		"0.0.0.0/0\n255.255.255.255/32\n",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		ps, err := ParsePrefixList(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		for _, p := range ps.Sorted() {
			buf.WriteString(p.String() + "\n")
		}
		back, err := ParsePrefixList(&buf)
		if err != nil {
			t.Fatalf("written list does not reparse: %v", err)
		}
		if got, want := back.Sorted(), ps.Sorted(); !slices.Equal(got, want) {
			t.Fatalf("round trip gave %v, want %v", got, want)
		}
	})
}
