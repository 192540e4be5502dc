GO ?= go

.PHONY: all build vet test ci bench report fuzz clean verify-props coverage e2e e2e-smoke

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

# Regenerates every file under bench_artifacts/ (the paper's tables and
# figures, the deterministic metric snapshot metrics.txt and the ablations)
# from the artifacts table in golden_test.go, the same table
# TestGoldenArtifacts checks. Performance is measured by the benchmark/
# harness (benchmark/run.sh), not here.
bench:
	$(GO) test -run '^TestGoldenArtifacts$$' -update .

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
	$(GO) test -fuzz '^FuzzCheckBatchBody$$' -fuzztime 30s ./internal/reuseapi/
	$(GO) test -fuzz '^FuzzFabric$$' -fuzztime 30s ./internal/netsim/
	$(GO) test -fuzz '^FuzzClockModel$$' -fuzztime 30s ./internal/netsim/
	$(GO) test -fuzz '^FuzzRoutingTable$$' -fuzztime 30s ./internal/dht/

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
# boots blcrawl + pipeline + blserve as real processes over loopback,
# asserting on the served API against the ground-truth oracles. On failure,
# process logs land under E2E_LOG_DIR.
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
