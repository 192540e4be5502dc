package reuseapi

import (
	"fmt"
	"net/http"
	"strings"

	"github.com/reuseblock/reuseblock/internal/obs"
)

// Registry is the HTTP surface of the package: it serves one or more named
// datasets behind one handler. Each dataset is a *Server — its own
// atomically swappable snapshot — and every endpoint is reachable both as
// /v1/{dataset}/{endpoint} and, for the default (first-registered)
// dataset, at the unprefixed /v1/{endpoint} routes. A single-dataset
// deployment is a one-entry registry.
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
