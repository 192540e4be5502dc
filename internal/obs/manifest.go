package obs

import (
	"encoding/json"
	"runtime"
	"runtime/debug"
	"time"
)

// StageStatus is one pipeline stage's outcome in the manifest.
type StageStatus struct {
	Stage  string `json:"stage"`
	Status string `json:"status"` // "ok", "degraded", "failed" or "skipped"
	Detail string `json:"detail,omitempty"`
}

// Manifest is the audit record of one study run: what was asked for, what
// ran it, how each stage fared, and the deterministic metric snapshot. It is
// embedded in reports on request and served by blserve at /debug/manifest.
//
// Everything except GeneratedAt, Host and the wall-namespace entries of
// Metrics is a pure function of (seed, config, code version).
type Manifest struct {
	Seed          int64   `json:"seed"`
	Scale         float64 `json:"scale,omitempty"`
	Workers       int     `json:"workers"`
	Vantages      int     `json:"vantages,omitempty"`
	FaultScenario string  `json:"fault_scenario,omitempty"`

	// Build provenance, from the embedded module build info.
	GoVersion     string `json:"go_version"`
	Module        string `json:"module,omitempty"`
	ModuleVersion string `json:"module_version,omitempty"`
	VCSRevision   string `json:"vcs_revision,omitempty"`
	VCSModified   bool   `json:"vcs_modified,omitempty"`

	// Host facts (non-deterministic across machines, stable within one).
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`

	Stages  []StageStatus `json:"stages,omitempty"`
	Metrics []Metric      `json:"metrics,omitempty"`

	// Serving is filled by long-running servers (blserve) with their live
	// dataset state; nil for one-shot study runs.
	Serving *ServingStatus `json:"serving,omitempty"`

	// GeneratedAt is the wall-clock build instant (non-deterministic).
	GeneratedAt time.Time `json:"generated_at"`
}

// ServingStatus is a server's dataset lifecycle in the manifest: whether hot
// reload is watching the input files, how many reloads have landed, and how
// the last attempt fared. All wall-clock-grade (a serving process is not a
// deterministic study).
type ServingStatus struct {
	// Watching reports whether a file watcher is polling for new datasets.
	Watching bool `json:"watching"`
	// Reloads counts dataset swaps since startup (mirrors the
	// wall_dataset_reloads_total counter).
	Reloads int64 `json:"dataset_reloads"`
	// LastReload is when the latest successful swap landed (zero when the
	// startup dataset is still serving).
	LastReload time.Time `json:"last_reload"`
	// LastError is the most recent failed reload attempt's error; a later
	// successful reload clears it.
	LastError string `json:"last_reload_error,omitempty"`
	// DatasetGenerated is the served dataset's build stamp.
	DatasetGenerated time.Time `json:"dataset_generated"`
	// Datasets carries one block per served dataset, default first; a
	// single-file server has exactly one, named "default". The top-level
	// fields above repeat the default dataset's, so readers that predate
	// this array keep working.
	Datasets []DatasetServingStatus `json:"datasets,omitempty"`
}

// DatasetServingStatus is one named dataset's lifecycle block in a server's
// manifest.
type DatasetServingStatus struct {
	Name string `json:"name"`
	// Default marks the dataset the unprefixed /v1/* routes alias.
	Default bool `json:"default,omitempty"`
	// Reloads counts this dataset's swaps; DeltaReloads is the subset that
	// went through the incremental delta compile instead of a full one.
	Reloads      int64     `json:"reloads"`
	DeltaReloads int64     `json:"delta_reloads"`
	LastReload   time.Time `json:"last_reload"`
	LastError    string    `json:"last_reload_error,omitempty"`
	// Generated is the served snapshot's build stamp; NATedAddresses and
	// DynamicPrefixes size it.
	Generated       time.Time `json:"generated"`
	NATedAddresses  int       `json:"nated_addresses"`
	DynamicPrefixes int       `json:"dynamic_prefixes"`
}

// NewManifest seeds a manifest with build and host provenance; the caller
// fills in the run parameters, stages and metrics.
func NewManifest() *Manifest {
	m := &Manifest{
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GeneratedAt: time.Now().UTC(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		m.Module = bi.Main.Path
		m.ModuleVersion = bi.Main.Version
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.VCSRevision = s.Value
			case "vcs.modified":
				m.VCSModified = s.Value == "true"
			}
		}
	}
	return m
}

// JSON renders the manifest with stable indentation.
func (m *Manifest) JSON() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}
