package fleet

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"github.com/reuseblock/reuseblock/internal/faults"
)

// WorkerSpec is everything needed to run one shard crawl as a fleet worker:
// the deterministic crawl inputs plus the control-plane wiring.
type WorkerSpec struct {
	// ID is the worker's fleet-wide number (stable across restarts of the
	// same shard: worker I owns shard I/N).
	ID int
	// Attempt distinguishes restarts of the same shard (1 = first launch).
	Attempt int
	Shard   ShardSpec

	Seed     int64
	Scale    float64
	Duration time.Duration
	Loss     float64
	// FaultScenario is the scenario name ("" for fault-free); carried by
	// name so it crosses the process boundary as a flag.
	FaultScenario string
	Budget        Budget

	// OutFile is where the worker writes its shard observations; per
	// attempt, so a killed worker's partial file can never shadow its
	// replacement's output.
	OutFile string
	// ReportTo is the coordinator control address ("127.0.0.1:PORT").
	ReportTo   string
	HBInterval time.Duration
}

// WorkerHandle supervises one launched worker.
type WorkerHandle interface {
	// Wait blocks until the worker exits; nil means a clean exit.
	Wait() error
	// Kill terminates the worker abruptly (crash semantics: no fleet_done,
	// no out file flush — what the supervisor must survive).
	Kill() error
	// Pid returns the worker's OS process ID, or 0 for in-process workers.
	Pid() int
}

// Runner launches workers. ProcRunner runs real blcrawl processes over
// loopback UDP (production shape); LocalRunner runs the identical crawl
// in-process (single-binary mode and deterministic tests). Both speak the
// same control protocol, so the coordinator cannot tell them apart.
type Runner interface {
	Start(spec WorkerSpec) (WorkerHandle, error)
}

// ProcRunner launches each worker as a real `blcrawl` process.
type ProcRunner struct {
	// Binary is the blcrawl executable path.
	Binary string
	// LogDir, when non-empty, receives per-worker stdout/stderr capture
	// (worker_<ID>_try<Attempt>.log); otherwise output is discarded.
	LogDir string
}

type procHandle struct {
	cmd *exec.Cmd
	log *os.File
	err chan error
}

// Start implements Runner.
func (r *ProcRunner) Start(spec WorkerSpec) (WorkerHandle, error) {
	args := []string{
		"-seed", strconv.FormatInt(spec.Seed, 10),
		"-scale", strconv.FormatFloat(spec.Scale, 'g', -1, 64),
		"-duration", spec.Duration.String(),
		"-loss", strconv.FormatFloat(spec.Loss, 'g', -1, 64),
		"-shard", spec.Shard.String(),
		"-out", spec.OutFile,
		"-report-to", spec.ReportTo,
		"-worker", strconv.Itoa(spec.ID),
		"-hb-interval", spec.HBInterval.String(),
	}
	if spec.FaultScenario != "" {
		args = append(args, "-faults", spec.FaultScenario)
	}
	if spec.Budget.Rate > 0 {
		args = append(args, "-rate", strconv.FormatFloat(spec.Budget.Rate, 'g', -1, 64))
		if spec.Budget.Burst > 0 {
			args = append(args, "-burst", strconv.Itoa(spec.Budget.Burst))
		}
	}
	if spec.Budget.MaxInflight > 0 {
		args = append(args, "-max-inflight", strconv.Itoa(spec.Budget.MaxInflight))
	}
	cmd := exec.Command(r.Binary, args...)
	h := &procHandle{cmd: cmd, err: make(chan error, 1)}
	var sink io.Writer = io.Discard
	if r.LogDir != "" {
		f, err := os.Create(filepath.Join(r.LogDir, fmt.Sprintf("worker_%d_try%d.log", spec.ID, spec.Attempt)))
		if err != nil {
			return nil, err
		}
		h.log = f
		sink = f
	}
	cmd.Stdout = sink
	cmd.Stderr = sink
	if err := cmd.Start(); err != nil {
		if h.log != nil {
			h.log.Close()
		}
		return nil, err
	}
	go func() {
		err := cmd.Wait()
		if h.log != nil {
			h.log.Close()
		}
		h.err <- err
	}()
	return h, nil
}

func (h *procHandle) Wait() error { return <-h.err }
func (h *procHandle) Kill() error { return h.cmd.Process.Kill() }
func (h *procHandle) Pid() int    { return h.cmd.Process.Pid }

// LocalRunner runs workers as in-process goroutines through RunWorker, the
// same code path a blcrawl worker process runs.
type LocalRunner struct{}

type localHandle struct {
	cancel chan struct{}
	done   chan struct{}
	err    error
}

// Start implements Runner.
func (LocalRunner) Start(spec WorkerSpec) (WorkerHandle, error) {
	h := &localHandle{cancel: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		_, h.err = RunWorker(spec, nil, h.cancel, io.Discard)
	}()
	return h, nil
}

func (h *localHandle) Wait() error {
	<-h.done
	return h.err
}

func (h *localHandle) Kill() error {
	select {
	case <-h.cancel:
	default:
		close(h.cancel)
	}
	return nil
}

func (h *localHandle) Pid() int { return 0 }

// RunWorker runs one shard crawl end to end, and is the only code that
// does: blcrawl's simulated mode (and with it every ProcRunner worker) and
// LocalRunner all call it. It dials the coordinator when spec.ReportTo is
// set, runs the crawl publishing heartbeat snapshots, writes the shard
// observations to spec.OutFile when set, and delivers fleet_done.
// eventLog, when non-nil, receives the crawler message log. A cancelled
// crawl (worker killed) returns an error without writing the out file or
// reporting done — crash semantics, identical to a killed process.
func RunWorker(spec WorkerSpec, eventLog io.Writer, cancel <-chan struct{}, stderr io.Writer) (CrawlResult, error) {
	scenario, err := faults.Lookup(spec.FaultScenario)
	if err != nil {
		return CrawlResult{}, err
	}
	// The coordinator is dialed before world generation so readiness is
	// announced as early as possible.
	var agent *Agent
	if spec.ReportTo != "" {
		agent, err = DialAgent(spec.ReportTo, spec.ID, spec.Shard, spec.HBInterval)
		if err != nil {
			return CrawlResult{}, err
		}
		defer agent.Close()
	}
	job := CrawlJob{
		Seed:     spec.Seed,
		Scale:    spec.Scale,
		Duration: spec.Duration,
		Loss:     spec.Loss,
		Scenario: scenario,
		Shard:    spec.Shard,
		Budget:   spec.Budget,
		EventLog: eventLog,
		Stderr:   stderr,
		Chunk:    heartbeatChunk(spec.Duration),
		Cancel:   cancel,
	}
	if agent != nil {
		job.Progress = agent.Publish
	}
	res, err := RunCrawl(job)
	if err != nil {
		return res, err
	}
	if res.Cancelled {
		return res, fmt.Errorf("fleet: worker %d cancelled mid-crawl", spec.ID)
	}
	if spec.OutFile != "" {
		if err := WriteOut(spec.OutFile, res.Detected, stderr); err != nil {
			return res, err
		}
	}
	if agent != nil {
		d := Done{
			OutFile:       spec.OutFile,
			Stats:         ToWireStats(res.Stats),
			TruePositives: int64(res.TruePositives),
		}
		if res.SawBootstrap {
			d.SawBootstrap = 1
		}
		if err := agent.Done(d); err != nil {
			return res, err
		}
	}
	return res, nil
}

// heartbeatChunk picks the simulated-time slice between progress snapshots:
// fine enough that heartbeats track the crawl, coarse enough that chunking
// overhead stays negligible. Chunking never changes crawl output (RunFor is
// additive), so the choice is free.
func heartbeatChunk(d time.Duration) time.Duration {
	chunk := d / 64
	if chunk < time.Minute {
		chunk = time.Minute
	}
	return chunk
}
