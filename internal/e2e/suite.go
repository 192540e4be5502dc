package e2e

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/testkit"
)

// Scenario is one named end-to-end case: a seeded world, a fault-catalogue
// name for the crawl, the serving mode, and a Run body asserting against the
// booted stack. Run returns an error instead of calling t.Fatal so the suite
// can replay the scenario programmatically while shrinking a failure.
type Scenario struct {
	Name        string
	Description string

	Seed       int64
	Scale      float64
	CrawlHours int
	Faults     string
	Watch      bool
	// Datasets, when non-empty, boots blserve in multi-dataset mode (one
	// -dataset flag per entry; the first is the default).
	Datasets []DatasetSpec

	// Smoke marks the scenario as part of the -short subset CI runs on
	// every push; the rest only run in the nightly full suite.
	Smoke bool

	Run func(s *Stack) error
}

// spec projects the scenario onto a testkit.WorldSpec for shrink reporting.
// Only the dimensions the process pipeline realizes (seed, scale, crawl
// duration) differ from the tame default, so every shrunk spec remains a
// bootable StackConfig.
func (sc Scenario) spec() testkit.WorldSpec {
	s := testkit.DefaultSpec(sc.Seed)
	if sc.Scale != 0 {
		s.Scale = sc.Scale
	}
	if sc.CrawlHours != 0 {
		s.CrawlHours = sc.CrawlHours
	}
	return s
}

func (sc Scenario) config(spec testkit.WorldSpec) StackConfig {
	return StackConfig{
		Seed:          spec.Seed,
		Scale:         spec.Scale,
		CrawlDuration: time.Duration(spec.CrawlHours) * time.Hour,
		Faults:        sc.Faults,
		Watch:         sc.Watch,
		Datasets:      sc.Datasets,
	}
}

// boot runs the scenario once against a freshly booted stack and reports
// both the error and the stack (for log salvage; may be partial).
func (sc Scenario) boot(spec testkit.WorldSpec, short bool) (*Stack, error) {
	st, err := BootStack(sc.config(spec))
	if err != nil {
		return st, fmt.Errorf("boot: %w", err)
	}
	st.Short = short
	return st, sc.Run(st)
}

// Suite is a hivesim-style collection of scenarios run as subtests.
type Suite struct {
	scenarios []Scenario
}

// Add registers a scenario.
func (su *Suite) Add(sc Scenario) { su.scenarios = append(su.scenarios, sc) }

// Run executes the suite. Under -short only Smoke scenarios run. On failure
// it saves every process log and the dataset inputs under E2E_LOG_DIR (CI
// uploads that directory as an artifact), then — when E2E_SHRINK_BUDGET
// allows — re-runs the scenario on progressively tamer worlds and reports
// the smallest spec that still fails, with a reproduction command.
func (su *Suite) Run(t *testing.T) {
	for _, sc := range su.scenarios {
		t.Run(sc.Name, func(t *testing.T) {
			if testing.Short() && !sc.Smoke {
				t.Skip("not part of the -short smoke subset")
			}
			spec := sc.spec()
			st, err := sc.boot(spec, testing.Short())
			if st != nil {
				defer st.Close()
			}
			if err == nil {
				return
			}
			t.Errorf("scenario %s (seed %d, scale %g, faults %q): %v",
				sc.Name, spec.Seed, spec.Scale, sc.Faults, err)
			if st != nil {
				dir := filepath.Join(logDir(), sc.Name)
				if serr := st.SaveLogs(dir); serr != nil {
					t.Logf("saving process logs: %v", serr)
				} else {
					t.Logf("process logs and dataset inputs saved under %s", dir)
				}
			}
			if budget := shrinkBudget(); budget > 0 {
				shrunk := testkit.Shrink(spec, func(s testkit.WorldSpec) bool {
					rst, rerr := sc.boot(s, true)
					if rst != nil {
						rst.Close()
					}
					return rerr != nil
				}, budget)
				t.Logf("shrunk failing world: seed=%d scale=%g crawl=%dh",
					shrunk.Seed, shrunk.Scale, shrunk.CrawlHours)
				t.Logf("reproduce with: go test -tags e2e -run 'TestE2EScenarios/%s' ./internal/e2e", sc.Name)
			}
		})
	}
}

// logDir is where failing scenarios dump process logs; CI points it at an
// artifact path via E2E_LOG_DIR.
func logDir() string {
	if d := os.Getenv("E2E_LOG_DIR"); d != "" {
		return d
	}
	return filepath.Join(os.TempDir(), "reuseblock-e2e-logs")
}

// shrinkBudget is how many extra stack boots a failure may spend minimizing
// itself (E2E_SHRINK_BUDGET, default 0 — each boot forks a whole pipeline,
// so shrinking is opt-in).
func shrinkBudget() int {
	v := os.Getenv("E2E_SHRINK_BUDGET")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0
	}
	return n
}
