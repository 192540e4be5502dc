// Package e2e is the multi-process scenario harness: it boots the paper's
// pipeline as real OS processes over loopback — one blcrawl process per
// address shard, the blgen/bldetect dataset steps, and a blserve instance — and drives
// assertions against the *served* HTTP API, cross-checked against the
// testkit ground-truth oracles. It is the integration layer the unit-level
// property suite cannot cover: a fault scenario is asserted all the way from
// the netsim datagram hooks to the verdict bytes a client receives.
//
// The harness has four layers, modelled on the testworld/hivesim exemplars:
//
//   - Process lifecycle (proc.go): spawn, captured stdout/stderr, readiness
//     polling, graceful drain, log dumps on failure.
//   - Stack assembly (stack.go): one BootStack call runs crawlers → merge →
//     bldetect → blserve and hands back a live base URL plus the in-process
//     ground-truth world for oracle checks.
//   - Scenarios (suite.go): a hivesim-style Suite of named scenarios, each a
//     fault catalogue name plus a WorldSpec seed, with a -short smoke subset
//     and shrink-on-failure reporting of the offending seed.
//   - Load generation (loadgen.go): a concurrent driver for the zero-alloc
//     /v1/check path counting requests and errors.
//
// The scenario tests themselves live behind the `e2e` build tag (they build
// binaries and fork processes); the helpers in this package are plain
// library code so in-process tests (cmd/blserve) can reuse the readiness
// helpers.
package e2e

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
)

// commands are the pipeline binaries the harness builds and forks.
var commands = []string{"blgen", "blcrawl", "bldetect", "blserve"}

var binState struct {
	once sync.Once
	dir  string
	err  error
}

// repoRoot locates the module root from this source file's compile-time
// path (internal/e2e sits two levels below it). The harness only ever runs
// from a source checkout — it builds the cmd binaries with `go build`.
func repoRoot() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "."
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// Binaries builds every pipeline command once per test process into a
// temporary directory and returns name → executable path. Subsequent calls
// are free. Call CleanupBinaries (e.g. from TestMain) to remove the build.
func Binaries() (map[string]string, error) {
	binState.once.Do(func() {
		dir, err := os.MkdirTemp("", "reuseblock-e2e-bin-")
		if err != nil {
			binState.err = err
			return
		}
		args := []string{"build", "-o", dir + string(os.PathSeparator)}
		for _, c := range commands {
			args = append(args, "./cmd/"+c)
		}
		cmd := exec.Command("go", args...)
		cmd.Dir = repoRoot()
		if out, err := cmd.CombinedOutput(); err != nil {
			binState.err = fmt.Errorf("e2e: building binaries: %w\n%s", err, out)
			os.RemoveAll(dir)
			return
		}
		binState.dir = dir
	})
	if binState.err != nil {
		return nil, binState.err
	}
	bins := make(map[string]string, len(commands))
	for _, c := range commands {
		bins[c] = filepath.Join(binState.dir, c)
	}
	return bins, nil
}

// CleanupBinaries removes the per-process binary build directory.
func CleanupBinaries() {
	if binState.dir != "" {
		os.RemoveAll(binState.dir)
	}
}
