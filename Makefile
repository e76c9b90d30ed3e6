# Development workflow for hcperf. Stdlib-only Go >= 1.22; every target is
# plain `go` tooling so CI and local runs are identical.

GO ?= go

# Packages that own concurrency: the worker pool itself plus everything the
# pool fans out (experiments, the simulation engine, the scenarios), the
# wall-clock executor and the coordinator its ticker goroutines step, the
# resilience policy layer and the load generator's client. Every package
# under internal/ must appear in either RACE_PKGS or RACE_EXEMPT —
# scripts/race_pkgs_guard.sh (run by `make race` and CI) fails the build
# otherwise, so a new package cannot silently skip the race detector.
RACE_PKGS := ./internal/runner/... ./internal/experiment/... \
             ./internal/engine/... ./internal/scenario/... ./internal/rt/... \
             ./internal/core/... ./internal/lifecycle/... ./internal/service/... \
             ./internal/fleet/... ./internal/search/... ./internal/run/... \
             ./internal/store/... ./internal/policy/... ./internal/loadgen/...

# Provably single-threaded packages (pure math, data shapes, encoders):
# exempted from the race pass, but still enumerated so the guard can tell
# "deliberately exempt" from "forgotten".
RACE_EXEMPT := ./internal/analysis/... ./internal/dag/... \
               ./internal/exectime/... ./internal/hungarian/... \
               ./internal/metrics/... ./internal/mfc/... ./internal/perf/... \
               ./internal/rate/... ./internal/sched/... ./internal/simtime/... \
               ./internal/stats/... ./internal/trace/... ./internal/vehicle/... \
               ./internal/version/...

.PHONY: ci vet build test race race-guard bench bench-json bench-check bench-update fuzz suite netlines trace-demo serve load-smoke

# Benchtime for the perf-baseline suite. A duration (not an iteration
# count): the sub-microsecond benchmarks need >=10ms of samples for stable
# ns/op. allocs/op is exact per op on most pins, but not on all:
# ReportDigest/samples=20000, ResultCodec/encode/samples=20000,
# Execute/fusion-overload and FleetSecond/N=256 each move by an
# allocation or two from run to run, and FleetSecond/N=1024 by a few.
BENCHTIME ?= 10ms
# Where bench-check writes the fresh run (CI uploads it as an artifact).
# Lives under the git-ignored out/ so repeated local runs never litter the
# working tree.
BENCH_OUT ?= out/bench_fresh.json
# Extra hcperf-bench flags for bench-check; CI passes
# "-cpuprofile bench_cpu.pprof -memprofile bench_heap.pprof" so kernel
# regressions are diagnosable from the uploaded profiles.
BENCH_FLAGS ?=

## ci: the tier-1 gate — vet, build, full test suite, then the race pass.
ci: vet build test race

## vet: go vet over this module, then over the hcbench benchmark module
## under the environment hcbench/run.sh sets. hcbench compiles against
## internal/run, store, service, fleet and lifecycle, so an API change
## there fails here rather than only in the benchmark run.
vet:
	$(GO) vet ./...
	cd hcbench && GOWORK=off GOFLAGS=-mod=mod $(GO) vet .

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race-guard: fail if any internal package is missing from both RACE_PKGS
## and RACE_EXEMPT above.
race-guard:
	@sh scripts/race_pkgs_guard.sh "$(RACE_PKGS)" "$(RACE_EXEMPT)"

## race: concurrency-sensitive packages under the race detector. Includes
## the determinism harness (serial vs parallel digests) and the overlapping
## sweep test, so data races surface as reports or fingerprint mismatches.
race: race-guard
	$(GO) test -race -count=1 $(RACE_PKGS)

## bench: the parallel-runner benchmarks recorded in EXPERIMENTS.md.
bench:
	$(GO) test -bench='Sweep(Serial|Parallel)|Suite(Serial|Parallel)' -benchtime=3x -run='^$$' .

## bench-json: run the hot-path perf suite and print the machine-readable
## baseline JSON (ns/op, allocs/op, B/op per named benchmark) to stdout.
bench-json:
	$(GO) run ./cmd/hcperf-bench -json -benchtime $(BENCHTIME)

## bench-check: run the perf suite and diff it against the checked-in
## BENCH_baseline.json; non-zero exit on regression (>25% allocs/op or
## >40% ns/op by default). The fresh run is written to $(BENCH_OUT).
bench-check:
	@mkdir -p $(dir $(BENCH_OUT))
	$(GO) run ./cmd/hcperf-bench -check BENCH_baseline.json -benchtime $(BENCHTIME) -out $(BENCH_OUT) $(BENCH_FLAGS)

## bench-update: regenerate BENCH_baseline.json. Refuses to run with a
## dirty working tree so the new baseline can only reflect committed code.
bench-update:
	@test -z "$$(git status --porcelain)" || \
		{ echo "bench-update: working tree dirty; commit or stash first" >&2; exit 1; }
	$(GO) run ./cmd/hcperf-bench -json -benchtime $(BENCHTIME) -out BENCH_baseline.json

## fuzz: short fuzz passes — Hungarian solver vs brute force, the
## scenario-spec JSON decode/validate/re-encode round trip, the event
## queue vs its heap oracle (identical firing sequences), the search-space
## JSON normalize fixed point, the series CSV kernel vs an encoding/csv
## reference writer (identical bytes), its shortest-float
## writer vs strconv on raw float64 bits (identical bytes), the disk
## result codec (no panic or outsized allocation on any bytes; bit-exact
## round trip), and the status-body writer vs encoding/json (identical
## bytes). Each pass caps minimizing a new input at 1 s: uncapped, a pass
## can spend most of its 10 s minimizing and explore little.
FUZZ := -fuzztime=10s -fuzzminimizetime=1s
fuzz:
	$(GO) test -fuzz=FuzzHungarian $(FUZZ) ./internal/hungarian/
	$(GO) test -fuzz=FuzzSpecJSON $(FUZZ) ./internal/scenario/
	$(GO) test -fuzz=FuzzSchedulerEquivalence $(FUZZ) ./internal/simtime/
	$(GO) test -fuzz=FuzzParamSpaceJSON $(FUZZ) ./internal/search/
	$(GO) test -fuzz=FuzzRecorderCSV $(FUZZ) ./internal/trace/
	$(GO) test -fuzz=FuzzAppendShortest $(FUZZ) ./internal/trace/
	$(GO) test -fuzz=FuzzDecodeResult $(FUZZ) ./internal/run/
	$(GO) test -fuzz=FuzzStatusBody $(FUZZ) ./internal/service/

## suite: run every experiment once, fanned across GOMAXPROCS workers.
suite:
	$(GO) run ./cmd/hcperf-bench -parallel 0

## netlines: Go lines added, removed and net between BASE and HEAD, program
## and test files apart, hcbench/ excluded, then program code without blank
## and comment-only lines: make netlines BASE=<rev>
netlines:
	@sh scripts/netlines.sh "$(BASE)"

## trace-demo: export a per-job lifecycle trace of the car-following
## scenario; open trace.json in chrome://tracing or Perfetto.
trace-demo:
	$(GO) run ./cmd/hcperf-sim -scenario carfollow -scheme hcperf -duration 20 -trace trace.json

## serve: boot the simulation-as-a-service API on :8080 (see README for
## curl examples: submit, poll, trace, metrics).
serve:
	$(GO) run ./cmd/hcperf-serve -addr :8080

## load-smoke: a local version of the CI soak gate — 10s of open-loop load
## against a throwaway server, checked against LOAD_baseline.json. Assumes
## `make serve` (or any hcperf-serve) is already listening on :8080.
load-smoke:
	@mkdir -p out
	$(GO) run ./cmd/hcperf-load -url http://127.0.0.1:8080 -rps 50 -duration 10s -warmup 2s \
		-check LOAD_baseline.json -out out/load_smoke.json
