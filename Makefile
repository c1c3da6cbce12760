# CI entry points.  `make ci` is what a pipeline should run: static vetting,
# a full build, the test suite under the race detector (the annealing chains
# and the sweep engine are concurrent), every example run end to end, and a
# one-shot benchmark smoke that fails loudly if the zero-allocation evaluator
# or an experiment regresses.  It checks gofmt first (fmt-check), so a green
# local `make ci` is not refused by the hosted gofmt job.

GO ?= go

# pipefail so the bench target fails when `go test -bench` itself fails:
# without it the pipeline's status is benchjson's, which would otherwise
# happily snapshot whatever partial output preceded a crash.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: ci vet lint fmt-check build perfbench-build test test-daemon test-mps test-faults census golden fuzz-smoke examples cover bench-smoke bench-check bench profile

ci: fmt-check vet build perfbench-build test test-mps test-faults census fuzz-smoke examples bench-smoke

vet:
	$(GO) vet ./...

# Static analysis beyond go vet.  The hosted CI lint job installs the pinned
# staticcheck and runs this target; locally the target degrades to a notice
# when the tool is absent rather than failing every offline checkout.
# -checks=SA keeps the gate on correctness analyses (the SA series) so a
# style-rule bump in a new staticcheck release can't redden CI.
STATICCHECK ?= staticcheck

lint:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) -checks=SA ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (CI runs it)"; \
		echo "lint: to run locally: go install honnef.co/go/tools/cmd/staticcheck@2025.1.1"; \
	fi

# The gofmt gate the hosted CI workflow runs as its own job (so formatting
# failures are reported separately from build/test failures), reproducible
# locally before pushing.  `make ci` runs it too, first, so a local `make ci`
# covers every gate the workflow's `make ci` and `make fmt-check` jobs run.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

build:
	$(GO) build ./...

# The end-to-end benchmark harness is a nested module (perfbench/go.mod,
# `replace greencloud => ../`), so `./...` above never reaches it and an
# internal/ API change could break it unseen.  Vet and build it here; its
# tests are left to the harness's own runs.
perfbench-build:
	cd perfbench && $(GO) vet ./... && $(GO) build ./...

# The unit/library suite.  The serving-layer packages (the plannerd daemon
# and its exec-driven smoke tests, which build binaries, bind sockets and
# kill processes) run under their own budget in `make test-daemon` — CI's
# daemon-smoke job — so an integration hang can never eat the library
# suite's 2400s budget, and vice versa.
DAEMON_PKGS := greencloud/internal/plan greencloud/cmd/plannerd

test:
	$(GO) test -race -timeout 2400s $$($(GO) list ./... | grep -v -x -e 'greencloud/internal/plan' -e 'greencloud/cmd/plannerd')

# The continuous-planning daemon suites: the internal/plan package tests
# (batch equivalence, snapshot resume, concurrent what-ifs under -race) and
# the cmd/plannerd process-level smoke (build the real binary, drive it over
# HTTP, SIGKILL it, restart from snapshot).  Daemon stderr lands in
# testlogs/, which the CI daemon-smoke job uploads when this target fails.
test-daemon:
	$(GO) test -race -timeout 600s $(DAEMON_PKGS)

# The vendored-MPS interchange gate: the real cmd/lpsolve binary must
# reproduce the committed reference objective of every instance under
# testdata/mps/ (see testdata/mps/objectives.tsv), also across a WriteMPS
# round trip, and internal/lp's TestVendoredMPSReferenceRules holds the same
# references under the test-only Dantzig and Bland pricing rules.
test-mps:
	$(GO) test -run TestVendoredMPS -count=1 ./cmd/lpsolve/ ./internal/lp/

# The fault-injection and resilience suites, run explicitly and under -race:
# every rung of the lp recovery ladder (singular-basis repair, cold retry,
# NaN guards, the Bland stall switch, deadline/cancellation), scheduler
# degradation, milp budget stops and anneal/core/experiments cancellation.
# `make test` already covers them via ./...; this focused gate makes a
# resilience regression loud and names the suites in the CI log.
FAULT_TESTS := Fault|Degrad|Budget|Cancel|Deadline|Stall|NaN|Repair|Corrupt|Stats|MaxIters|Resilience
FAULT_PKGS := ./internal/lp/ ./internal/sched/ ./internal/milp/ ./internal/anneal/ ./internal/core/ ./internal/experiments/

test-faults:
	$(GO) test -race -run '$(FAULT_TESTS)' $(FAULT_PKGS)

# The API census (census_test.go), three type-checked passes over the
# module's non-test code: every exported internal/ identifier is referenced
# (TestExportedSurfaceIsReached), every exported internal/ struct field that
# is read is also written (TestOptionFieldsAreWritten: no option only tests
# set) and every one that is written is also read (TestFieldsAreRead: no
# output nothing consumes).  `make test` already runs them; this focused
# gate makes a dead identifier or field loud in the CI log.
CENSUS_TESTS := ^(TestExportedSurfaceIsReached|TestOptionFieldsAreWritten|TestFieldsAreRead)$$

census:
	$(GO) test -count=1 -run '$(CENSUS_TESTS)' .

# Regenerate the reproduction's golden output: `cmd/experiments -exp all` at
# the default budget for seeds 1-3, wall-clock cells masked, under
# internal/experiments/testdata/.  TestGoldenAll compares against it in
# `make test`; a change that moves a figure runs this target and lists every
# moved cell, with its reason, in CHANGES.md.
golden:
	$(GO) test -count=1 -run '^TestGoldenAll$$' ./internal/experiments/ -update

# A few seconds of coverage-guided fuzzing per target, seeded from real
# journals, bases and request bodies: FuzzJournalResume feeds arbitrary bytes
# after a valid journal header to the daemon's restore (no panic, resume
# exactly at the whole valid records, torn tail truncated), FuzzHandler
# posts arbitrary bodies to plannerd's /tick and /whatif (no panic, no 5xx),
# FuzzDecodeBasis feeds lp.DecodeBasis (reject with ErrBasisEncoding or
# re-encode to the same bytes).  New corpus entries stay in the Go build cache; a failing input
# is written under the package's testdata/fuzz/ for `go test` to replay.
# Minimization is capped so the budget goes to fuzzing.
FUZZ_FLAGS = -run '^$$' -fuzztime 5s -fuzzminimizetime 1s -parallel 2

fuzz-smoke:
	$(GO) test $(FUZZ_FLAGS) -fuzz '^FuzzJournalResume$$' ./internal/plan/
	$(GO) test $(FUZZ_FLAGS) -fuzz '^FuzzHandler$$' ./internal/plan/
	$(GO) test $(FUZZ_FLAGS) -fuzz '^FuzzDecodeBasis$$' ./internal/lp/

# Run every program under examples/ end to end (each takes about a second);
# a non-zero exit from any of them fails the target.  `go build` only proves
# they compile, and their narratives call the library the way a user would.
examples:
	@for e in examples/*/; do \
		echo "go run ./$$e"; \
		$(GO) run ./$$e >/dev/null || exit 1; \
	done

# Coverage run: go test prints the per-package totals, the merged profile
# lands in coverage.out (uploaded as a build artifact by the CI workflow),
# and the final line is the whole-repo total.
cover:
	$(GO) test -covermode=atomic -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# One-shot smoke of the contract-carrying benchmarks: the warm evaluator
# (EvaluateSteadyState) prints allocs/op with its 0 allocs/op guarantee
# enforced by the accompanying test, LPResolve exercises the warm-started
# revised-simplex path (SetRHS + SolveFrom) end to end, and LPBounded exercises the
# implicit-bound path (nonbasic-at-bound statuses, bound flips) on a
# bound-heavy cold solve, LPSolve is the cold partition-LP solve with its
# pivots/op metric, and EmulDay runs one full emulation day on a
# reused Runner (metadata-plane GDFS + scratch reuse — the path that took
# Fig. 15 from gigabytes of allocation to megabytes); running them here
# catches a benchmark-only breakage (setup drift, catalog changes, a basis
# that stops translating) in `make ci` instead of the full sweep.
# BenchmarkCalibration is the machine-speed probe benchjson -calibrate
# normalizes by.  (The pricing-rule A/B, BenchmarkLPPricing, lives with the
# reference rules in internal/lp.)
# BenchmarkPlannerTick measures the continuous planner's steady-state warm
# tick (streamed ingest + RHS rewrite + warm re-solve + publish) — the
# latency a plannerd client sees on POST /tick — and fails if a measured
# tick falls back cold; it and PlannerTickFleet (the same tick on the 4
# datacenter × 200 VM fleet trace) report pivots/op, so a changed pivot
# path shows up there and a spurious LP re-layout in allocs/op.
# BenchmarkPlannerTickJournal is the same tick with
# the tick journal on, measured after 1000 warm-up ticks, so a per-tick
# persistence cost that grows with uptime shows up here.  EmulScale runs
# the emulation at fleet scale (4 datacenters × 2000 VMs × 12 hours, 32,000
# GDFS blocks), where the GDFS metadata plane's dirty writes and
# re-replication are a large share of each hour, so a GDFS slowdown shows
# up here.  CatalogGenerate builds a 300-site, 2-representative-day
# catalog from cold weather traces — perfbench's set-up and part of every
# plannerd start and restore — so a slower weather generator or a catalog
# build that stops running in parallel shows up here.  PlannerRestore
# restarts plannerd's fleet trace (4 datacenters × 200 VMs) from a
# 207-record tick journal — replaying every record's migrations and GDFS
# re-replication round — so a slower restore shows up here.  Each restore
# builds the trace's 60-site catalog from fresh weather years, as every
# fresh-process restore does (~130 ms/op on 2 vCPUs).  SolveSmallNetwork
# is one heuristic solve (60-site catalog, 4 chains × 40 iterations), and
# SolveSweep is the siting sweep in perfbench's shape: a 300-site catalog
# filtered to 60, one warm-started 11-step green chain per storage mode at
# 4 chains × 200 iterations, reporting sitings/op — so a slower evaluator,
# per-site stage or sizing balance shows up here (~0.055 s/op, ~34k
# allocs/op on 2 vCPUs).
BENCH_SMOKE := ^(BenchmarkCalibration|BenchmarkCatalogGenerate|BenchmarkEvaluateSteadyState|BenchmarkSolveSmallNetwork|BenchmarkSolveSweep|BenchmarkLPResolve|BenchmarkLPBounded|BenchmarkLPSolve|BenchmarkEmulDay|BenchmarkEmulScale|BenchmarkPlannerTick|BenchmarkPlannerTickFleet|BenchmarkPlannerTickJournal|BenchmarkPlannerRestore)$$

bench-smoke:
	$(GO) test -bench='$(BENCH_SMOKE)' -benchtime=1x -run '^$$' .

# The smoke benchmarks diffed against the latest committed snapshot without
# writing a new one (benchjson -check-only), so a CI runner can surface the
# deltas without ever polluting the BENCH_*.json trajectory.  One-shot
# measurements are reported but never gated (see cmd/benchjson), so this
# target fails only on parse/run failures, not machine noise.  -calibrate
# normalizes the ns/op deltas by the BenchmarkCalibration ratio between the
# two snapshots, so a CI runner on different hardware diffs speedups, not
# machines.
bench-check:
	$(GO) test -bench='$(BENCH_SMOKE)' -benchtime=1x -run '^$$' . | $(GO) run ./cmd/benchjson -check-only -calibrate -baseline latest

# Full benchmark sweep (regenerates every paper figure; slow).  The output
# is snapshotted into BENCH_<date>.json so the performance trajectory is
# tracked per PR; commit the snapshot alongside perf-relevant changes.
# benchjson refuses to overwrite a same-day snapshot (it writes a -2/-3/…
# suffixed sibling instead) and diffs against the latest committed snapshot,
# failing the target when any benchmark regresses by more than 10% ns/op.
bench:
	$(GO) test -bench=. -run '^$$' . | $(GO) run ./cmd/benchjson -out BENCH_$$(date +%Y-%m-%d).json -calibrate -baseline latest

# CPU and heap profiles of one benchmark, written under profile/ (gitignored)
# for `go tool pprof profile/cpu.out`.  PROFILE_BENCH picks the benchmark —
# the default is the scheduler's end-to-end compute time (the optimization
# loop the paper's Fig. 14 measures; the entry point the devex/partial-pricing
# work was profiled with), but any benchmark name works:
#   make profile PROFILE_BENCH=LPResolve
PROFILE_BENCH ?= SchedulerComputeTime

profile:
	mkdir -p profile
	$(GO) test -bench='^Benchmark$(PROFILE_BENCH)$$' -benchtime=5x -run '^$$' \
		-cpuprofile profile/cpu.out -memprofile profile/mem.out -o profile/bench.test .
	@echo "profiles in profile/: go tool pprof profile/bench.test profile/cpu.out"
