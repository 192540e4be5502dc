package ripeatlas

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// FuzzReadLogs: any input is either rejected, or parses to entries that
// WriteLogs → ReadLogs reproduces exactly at second precision (WriteLogs
// formats RFC 3339 without fractional seconds).
func FuzzReadLogs(f *testing.F) {
	for _, seed := range []string{
		"2019-01-01T00:00:00Z,1,connect,10.0.0.1,64500\n2019-01-02T00:00:00Z,1,disconnect,10.0.0.1,64500\n",
		"2019-01-01T00:00:00.75+02:00,2147483647,connect,192.0.2.9,-2147483648\n",
		"1677-09-21T00:12:44Z,1,connect,10.0.0.1,1\n",
		"2262-04-11T23:47:16Z,1,disconnect,10.0.0.1,1\n",
		"1600-01-01T00:00:00Z,1,connect,10.0.0.1,1\n",
		"2019-01-01T00:00:00Z,2147483648,connect,10.0.0.1,1\n",
		"2019-01-01T00:00:00Z,1,frobnicate,10.0.0.1,1\n",
		"\"2019-01-01T00:00:00Z\",+7,connect,10.0.0.1,007\n",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		entries, err := ReadLogs(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteLogs(&buf, entries); err != nil {
			t.Fatal(err)
		}
		back, err := ReadLogs(&buf)
		if err != nil {
			t.Fatalf("written log does not reparse: %v\n%s", err, buf.String())
		}
		if len(back) != len(entries) {
			t.Fatalf("round trip has %d entries, want %d", len(back), len(entries))
		}
		for i, e := range entries {
			e.UnixNano = e.Time().Truncate(time.Second).UnixNano()
			if back[i] != e {
				t.Fatalf("entry %d round-tripped to %+v, want %+v", i, back[i], e)
			}
		}
	})
}
