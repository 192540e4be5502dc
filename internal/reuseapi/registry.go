package reuseapi

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"github.com/reuseblock/reuseblock/internal/obs"
	"github.com/reuseblock/reuseblock/internal/shed"
)

// Registry is the HTTP surface of the package: it serves one or more named
// datasets behind one handler. Each dataset is a *Server — its own
// atomically swappable snapshot, its own optional admission controller —
// and every endpoint is reachable both as /v1/{dataset}/{endpoint} and, for
// the default (first-registered) dataset, at the unprefixed
// /v1/{endpoint} routes. A single-dataset deployment is a one-entry
// registry.
//
// Registration happens once at startup, before Handler; after that the
// registry is read-only and requests touch no locks beyond each server's
// snapshot pointer. Per-dataset updates go through the registered *Server
// (Update / ApplyDelta), not the registry.
type Registry struct {
	// Obs, when non-nil, counts requests and observes per-endpoint latency
	// for every dataset (under the wall namespace — traffic is not part of
	// the deterministic study surface, and each series carries a dataset
	// label) and is served in Prometheus text form at /metrics.
	Obs *obs.Registry
	// Manifest, when non-nil, is served as JSON at /debug/manifest.
	Manifest obs.ManifestSource
	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/.
	EnablePprof bool

	order []string
	named map[string]*Server
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{named: make(map[string]*Server)}
}

// endpointNames are the path segments that terminate a /v1/ route; a
// dataset must not shadow them, or /v1/{dataset}/... and /v1/{endpoint}
// would collide.
var endpointNames = map[string]bool{
	"check": true, "list": true, "prefixes": true, "stats": true, "greylist": true,
}

// Register adds a named dataset. The first registered dataset becomes the
// default the unprefixed /v1/* routes alias. Names are path segments, so
// they are restricted to lowercase letters, digits, '-', '_' and '.', and
// must not shadow an endpoint name.
func (g *Registry) Register(name string, srv *Server) error {
	if err := validDatasetName(name); err != nil {
		return err
	}
	if _, dup := g.named[name]; dup {
		return fmt.Errorf("dataset %q already registered", name)
	}
	g.named[name] = srv
	g.order = append(g.order, name)
	return nil
}

func validDatasetName(name string) error {
	if name == "" {
		return fmt.Errorf("empty dataset name")
	}
	if endpointNames[name] {
		return fmt.Errorf("dataset name %q shadows an endpoint", name)
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("dataset name %q: invalid character %q", name, c)
		}
	}
	return nil
}

// Dataset returns the named server.
func (g *Registry) Dataset(name string) (*Server, bool) {
	srv, ok := g.named[name]
	return srv, ok
}

// Names returns the registered dataset names in registration order; the
// first is the default.
func (g *Registry) Names() []string {
	return append([]string(nil), g.order...)
}

// DefaultName returns the default dataset's name ("" when none registered).
func (g *Registry) DefaultName() string {
	if len(g.order) == 0 {
		return ""
	}
	return g.order[0]
}

// Handler returns the multi-dataset HTTP handler. At least one dataset must
// be registered. Observability hooks are bound here, so set them (and
// register every dataset) before calling.
func (g *Registry) Handler() http.Handler {
	if len(g.order) == 0 {
		panic("reuseapi: Registry.Handler with no datasets registered")
	}
	mux := http.NewServeMux()
	h := &registryHandler{mux: mux, eps: make(map[string]*endpointSet, len(g.named))}
	for _, name := range g.order {
		es := g.named[name].endpoints(name, g.Obs)
		h.eps[name] = &es
	}
	h.def = h.eps[g.order[0]]
	if g.anyShed() {
		// The health probes bypass admission — a load balancer must be able
		// to probe an overloaded server.
		mux.HandleFunc("/healthz", g.handleHealthz)
		mux.HandleFunc("/readyz", g.handleReadyz)
	}
	if g.Obs != nil {
		mux.Handle("/metrics", obs.MetricsHandler(g.Obs))
	}
	if g.Manifest != nil {
		mux.Handle("/debug/manifest", obs.ManifestHandler(g.Manifest))
	}
	if g.EnablePprof {
		obs.RegisterPprof(mux)
	}
	return h
}

func (g *Registry) anyShed() bool {
	for _, srv := range g.named {
		if srv.Shed != nil {
			return true
		}
	}
	return false
}

// registryHandler routes /v1/{endpoint} to the default dataset and
// /v1/{dataset}/{endpoint} to the named one, answering every other /v1/ path
// with a JSON 404 itself, and falls back to the mux for everything outside
// /v1/. Dispatch is two string cuts and two map probes — no per-request
// allocation.
type registryHandler struct {
	mux *http.ServeMux
	eps map[string]*endpointSet
	def *endpointSet
}

func (h *registryHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rest, ok := strings.CutPrefix(r.URL.Path, "/v1/")
	if !ok {
		h.mux.ServeHTTP(w, r)
		return
	}
	es, endpoint := h.def, rest
	if name, tail, named := strings.Cut(rest, "/"); named {
		if es, ok = h.eps[name]; !ok {
			writeError(w, http.StatusNotFound, "unknown dataset", name)
			return
		}
		endpoint = tail
	}
	if hf := es.lookup(endpoint); hf != nil {
		hf(w, r)
		return
	}
	writeError(w, http.StatusNotFound, "unknown endpoint", endpoint)
}

// handleHealthz is liveness for the whole process: up and serving HTTP means
// 200 — degraded is an overload posture, not a death.
func (g *Registry) handleHealthz(w http.ResponseWriter, r *http.Request) {
	setContentTypeJSON(w)
	_, _ = w.Write([]byte("{\"status\":\"ok\"}\n"))
}

// handleReadyz aggregates readiness over every dataset with admission
// control: one degraded dataset makes the whole replica not-ready (load
// balancers drain per process, not per path), and the 503 body names the
// degraded datasets so operators see which feed is in trouble. Each probe
// re-evaluates the mode machines, so readiness polling alone is enough to
// drive recovery after a flood ends.
func (g *Registry) handleReadyz(w http.ResponseWriter, r *http.Request) {
	var degraded []string
	var first *shed.Controller
	for _, name := range g.order {
		if c := g.named[name].Shed; c != nil && c.Mode() == shed.ModeDegraded {
			degraded = append(degraded, name)
			if first == nil {
				first = c
			}
		}
	}
	if len(degraded) == 0 {
		setContentTypeJSON(w)
		_, _ = w.Write([]byte("{\"ready\":true,\"mode\":\"normal\"}\n"))
		return
	}
	w.Header().Set("Retry-After", strconv.Itoa(first.RetryAfterSeconds()))
	setContentTypeJSON(w)
	w.WriteHeader(http.StatusServiceUnavailable)
	_, _ = w.Write(encodeJSONLine(struct {
		Ready    bool     `json:"ready"`
		Mode     string   `json:"mode"`
		Degraded []string `json:"degraded_datasets"`
	}{false, "degraded", degraded}))
}
