package reuseapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

// FuzzCheckBatchBody sends any body to POST /v1/check through the Registry
// handler. The answer must be a 413 for a body over MaxBatchBytes, a 400
// with the JSON Error shape for anything encoding/json cannot decode into a
// list of at most MaxBatchIPs addresses, and otherwise a 200 with one
// verdict per address, in order, each equal to Snapshot.Verdict.
func FuzzCheckBatchBody(f *testing.F) {
	dyn := iputil.NewPrefixSet()
	dyn.Add(iputil.MustParsePrefix("10.9.0.0/24"))
	srv := NewServer(&Dataset{
		NATUsers:        map[iputil.Addr]int{iputil.MustParseAddr("100.64.0.1"): 3, iputil.MustParseAddr("10.9.0.7"): 5},
		DynamicPrefixes: dyn,
		Generated:       time.Date(2020, 5, 11, 0, 0, 0, 0, time.UTC),
	})
	h := handlerFor(f, srv)
	snap := srv.Snapshot()
	for _, body := range []string{
		`["100.64.0.1","10.9.0.7","10.9.0.8","8.8.8.8"]`,
		`[]`,
		`null`,
		` [ "1.2.3.4" ] trailing`,
		`["1.2.3.4", 5]`,
		`["1.2.3.4","not-an-ip"]`,
		`["001.2.3.4","1.2.3.4 "]`,
		`{"ip":"1.2.3.4"}`,
		`"1.2.3.4"`,
		`["1.2.3.4"]`,
		`[`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(body)))
		resp := rec.Body.Bytes()
		if rec.Code != http.StatusOK {
			var e Error
			if err := json.Unmarshal(resp, &e); err != nil || e.Error == "" {
				t.Fatalf("status %d body %q is not the Error shape (%v)", rec.Code, resp, err)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("status %d Content-Type %q", rec.Code, ct)
			}
		}
		if rec.Code == http.StatusRequestEntityTooLarge {
			if len(body) <= MaxBatchBytes {
				t.Fatalf("413 for a %d-byte body", len(body))
			}
			return
		}

		// What the handler must accept: encoding/json's reading of the
		// first value, at most MaxBatchIPs entries, every one an address.
		var ips []string
		valid := json.NewDecoder(bytes.NewReader(body)).Decode(&ips) == nil && len(ips) <= MaxBatchIPs
		addrs := make([]iputil.Addr, 0, len(ips))
		for _, s := range ips {
			a, err := iputil.ParseAddr(s)
			if err != nil {
				valid = false
				break
			}
			addrs = append(addrs, a)
		}
		if !valid {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("invalid batch %q answered %d, want 400", body, rec.Code)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("valid batch %q answered %d: %s", body, rec.Code, resp)
		}
		var got []Verdict
		if err := json.Unmarshal(resp, &got); err != nil {
			t.Fatalf("200 body %q: %v", resp, err)
		}
		if len(got) != len(addrs) {
			t.Fatalf("%d verdicts for %d addresses", len(got), len(addrs))
		}
		for i, a := range addrs {
			if want := snap.Verdict(a); got[i] != want {
				t.Fatalf("verdict %d = %+v, Snapshot.Verdict %+v", i, got[i], want)
			}
		}
	})
}
