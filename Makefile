GO ?= go

.PHONY: all build vet test ci bench bench-obs bench-serve report fuzz clean verify-props coverage e2e e2e-smoke

all: build vet test

build:
	$(GO) build ./...

vet:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	$(GO) vet ./...
	$(GO) vet -tags "e2e slow" ./...

test:
	$(GO) test -race ./...

# What the CI workflow runs: -short skips the full default-scale golden
# study but keeps the 4-worker equivalence test that exercises every
# parallel fan-out under the race detector.
ci: build vet
	$(GO) test -race -short ./...

# Regenerates every paper table/figure into bench_artifacts/ (including the
# deterministic metric snapshot metrics.txt), the worker-scaling curve in
# BENCH_parallel.json, and the instrumentation-overhead curve in
# BENCH_obs.json.
bench:
	$(GO) test -bench=. -benchmem .

# Just the observability overhead: the BenchmarkStudyParallel-shaped study
# with instrumentation off vs on, recorded to BENCH_obs.json.
bench-obs:
	$(GO) test -bench=BenchmarkStudyObs -benchmem -run='^$$' .

# Serving-layer benchmarks: the compiled-snapshot reuseapi server against a
# locked-map replica of the old design on /v1/check and /v1/list, plus batch
# throughput, recorded to BENCH_serve.json.
bench-serve:
	$(GO) test -bench=BenchmarkServe -benchmem -run='^$$' .

# Paper-scale footprint ratchet: sharded swarms at world scales 1, 10 and
# 100, rows appended to BENCH_scale.json; fails if bytes/host at scale >= 10
# is not 5x under the pre-refactor baseline. Set SCALE_BENCH_MAX=10 for a
# quick local pass without the 950K-host world.
bench-scale:
	$(GO) test -bench=BenchmarkStudyScale -benchtime=1x -run='^$$' -timeout 50m .

# Full default-scale study: every table and figure on stdout.
report:
	$(GO) run ./cmd/blreport

fuzz:
	$(GO) test -fuzz '^FuzzDecode$$' -fuzztime 30s ./internal/bencode/
	$(GO) test -fuzz '^FuzzUnmarshal$$' -fuzztime 30s ./internal/krpc/
	$(GO) test -fuzz '^FuzzCodecDifferential$$' -fuzztime 30s ./internal/krpc/
	$(GO) test -fuzz '^FuzzUnmarshalInto$$' -fuzztime 30s ./internal/krpc/
	$(GO) test -fuzz '^FuzzParseLog$$' -fuzztime 30s ./internal/crawler/
	$(GO) test -fuzz '^FuzzCrawlerState$$' -fuzztime 30s ./internal/crawler/
	$(GO) test -fuzz '^FuzzParseNATedList$$' -fuzztime 30s ./internal/blocklist/
	$(GO) test -fuzz '^FuzzParsePrefixList$$' -fuzztime 30s ./internal/blocklist/
	$(GO) test -fuzz '^FuzzReadLogs$$' -fuzztime 30s ./internal/ripeatlas/
	$(GO) test -fuzz '^FuzzSurveyRuns$$' -fuzztime 30s ./internal/icmpsurvey/
	$(GO) test -fuzz '^FuzzDeltaCompile$$' -fuzztime 30s ./internal/reuseapi/

# Property-based verification: the fast metamorphic suite, the per-package
# property tests, then the slow 50-world seed sweep (oracles, determinism,
# worker invariance and fault-tolerance bands per world). Tune the sweep with
# TESTKIT_SWEEP_COUNT / TESTKIT_SWEEP_START / TESTKIT_SWEEP_FAULTS.
verify-props:
	$(GO) test -run 'TestWorldProperties|TestWorldFaultTolerance' .
	$(GO) test ./internal/testkit/ ./internal/kneedle/ ./internal/netsim/ ./internal/faults/ ./internal/ripeatlas/ ./internal/crawler/
	$(GO) test -tags slow -run TestPropertySweep -timeout 30m -v .

# Coverage ratchet: total -short coverage must stay above the committed
# floor in scripts/coverage_floor.txt.
coverage:
	./scripts/coverage_ratchet.sh

# End-to-end scenario suite: every scenario builds the cmd binaries and
# boots blcrawl shards + pipeline + blserve as real processes over loopback,
# asserting on the served API against the ground-truth oracles. The load-gen
# scenario appends its latency record to the file E2E_BENCH_OUT names, and
# writes nothing when it is unset, so a local run leaves the committed
# BENCH_e2e.json alone. On failure, process logs land under E2E_LOG_DIR.
e2e:
	$(GO) test -tags e2e -v -timeout 15m ./internal/e2e/

# The smoke subset (Smoke-marked scenarios only) under the race detector —
# what CI runs on every push.
e2e-smoke:
	$(GO) test -tags e2e -race -short -timeout 10m ./internal/e2e/

# bench_artifacts/ holds the committed golden files; regenerate with
# `make bench` rather than deleting.
clean:
	rm -f *.test *.out
