package reuseapi

import (
	"net/http"
	"strconv"

	"github.com/reuseblock/reuseblock/internal/shed"
)

// This file is the HTTP face of the overload-resilience layer: the shed
// package decides (admit, shed, rate-limit, degrade) and the helpers here
// translate decisions into the documented wire behaviour — JSON Error
// bodies with Retry-After on 429/503 and gzip-only degraded list serving
// (the /healthz + /readyz probes live on the Registry). Everything is
// reached only when Server.Shed is non-nil; a nil controller leaves the
// serving paths byte-identical to the unguarded build.

// guarded wraps an endpoint handler with the admission pipeline: the
// per-client token bucket first (cheapest check, and a rate-limited client
// must not consume a concurrency slot), then the class gate. Rejections
// carry the documented Error shape plus Retry-After. Without a controller
// the handler is returned unwrapped.
func (s *Server) guarded(class shed.Class, h http.HandlerFunc) http.HandlerFunc {
	c := s.Shed
	if c == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if !c.AllowClient(c.ClientKey(r)) {
			writeShedError(w, c, http.StatusTooManyRequests,
				"rate limit exceeded", "per-client request budget exhausted")
			return
		}
		release, outcome := c.Acquire(r.Context(), class)
		if outcome != shed.Admitted {
			writeShedError(w, c, http.StatusTooManyRequests,
				"overloaded: request shed", outcome.String())
			return
		}
		defer release()
		h(w, r)
	}
}

// writeShedError is writeError plus the Retry-After header every shed,
// rate-limited and degraded rejection carries.
func writeShedError(w http.ResponseWriter, c *shed.Controller, code int, msg, detail string) {
	w.Header().Set("Retry-After", strconv.Itoa(c.RetryAfterSeconds()))
	writeError(w, code, msg, detail)
}

// serveDegraded is servePrecomputed's degraded-mode variant for large
// bodies: revalidation still works (a 304 is the cheapest possible answer),
// gzip-accepting clients get the precomputed compressed bytes, and clients
// demanding the identity representation are turned away with 503 +
// Retry-After instead of holding a connection through a large transmit
// under overload. Bodies whose gzip form saved nothing (pb.gz == nil) are
// served as-is — they are already minimal.
func (s *Server) serveDegraded(w http.ResponseWriter, r *http.Request, pb *precomputedBody, contentType string) {
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("ETag", pb.etag)
	// Same negotiation, same Vary duty as servePrecomputed: which
	// representation (or rejection) a client gets depends on its
	// Accept-Encoding, so every degraded response declares it too.
	h.Set("Vary", "Accept-Encoding")
	if match := r.Header.Get("If-None-Match"); match != "" && etagMatches(match, pb.etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if pb.gz == nil {
		_, _ = w.Write(pb.body)
		return
	}
	if !acceptsGzip(r) {
		writeShedError(w, s.Shed, http.StatusServiceUnavailable,
			"degraded mode: precomputed gzip only", "retry with Accept-Encoding: gzip")
		return
	}
	h.Set("Content-Encoding", "gzip")
	_, _ = w.Write(pb.gz)
}
