GO ?= go

# The engine packages the race gate covers: the goroutine-per-PE fabric, the
# serial flat engine, the sharded parallel flat engine, the vector ISA they
# all execute, the shared shard-pool execution layer, the partitioned
# unstructured engine built on it, the Krylov solvers that drive the
# partitioned implicit path, the resident-engine serving layer that
# multiplexes concurrent requests over those solvers, the open-loop
# load generator that fires concurrent shot goroutines at it, and the
# fault-injection package whose chaos suite hammers the serving layer's
# failure domains (panic recovery, deadlines, forced drains) concurrently.
RACE_PKGS = ./internal/core/ ./internal/fabric/ ./internal/dsd/ ./internal/exec/ ./internal/umesh/ ./internal/solver/ ./internal/serve/ ./internal/loadgen/ ./internal/faultinject/

.PHONY: build test race bench-smoke bench-kernel bench-umesh bench-usolve bench-serve bench-check chaos-smoke fuzz-smoke cover docs-check vet fmt-check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 $(RACE_PKGS)

# Exercise every benchmark once at reduced size — validates the harness
# without paying full measurement cost (what CI runs). -run '^$$' skips the
# unit tests, which the test target already covers.
bench-smoke:
	@echo "bench-smoke: GOMAXPROCS=$${GOMAXPROCS:-$$(nproc)}"
	$(GO) test -run '^$$' -bench . -benchtime 1x -short ./...

# The fast-path kernel microbenchmarks (dsd ops, faceFlux, exchange, whole
# engine) once each — CI's guarantee that they keep compiling and running.
# Drop -benchtime/-short for a real measurement.
bench-kernel:
	@echo "bench-kernel: GOMAXPROCS=$${GOMAXPROCS:-$$(nproc)}"
	$(GO) test -run '^$$' -bench BenchmarkKernel -benchtime 1x -short ./internal/dsd/ ./internal/core/

# The partitioned unstructured engine microbenchmarks (engine step vs serial
# sweep, and the uncached canonical-order recursion RCB partitions from)
# once each — CI's guarantee that they keep compiling and running.
bench-umesh:
	@echo "bench-umesh: GOMAXPROCS=$${GOMAXPROCS:-$$(nproc)}"
	$(GO) test -run '^$$' -bench BenchmarkUmesh -benchtime 1x -short ./internal/umesh/

# The part-resident implicit-solve microbenchmarks (resident operator
# application and fused reductions vs the serial host apply, one whole
# partitioned step, and a transient solve per preconditioner-ladder rung —
# BenchmarkUsolvePrecond/{jacobi,ssor,chebyshev,amg}) once each — the smoke
# run behind BENCH_usolve.json.
bench-usolve:
	@echo "bench-usolve: GOMAXPROCS=$${GOMAXPROCS:-$$(nproc)}"
	$(GO) test -run '^$$' -bench 'BenchmarkPartOperator|BenchmarkUsolve' -benchtime 1x -short ./internal/umesh/

# The serving-layer load experiment at reduced scale: fvserve's in-process
# selftest (cold vs warm vs memoized on the benchmark scenario, bit-identity
# against the one-shot path, a short open-loop mixed-workload burst). Fails
# if the served result ever diverges from one-shot, or if the memoized
# repeat of the cold payload triggers a new engine solve. Drop
# -requests/-arrival-rate for the full BENCH_serve.json measurement (see
# docs/benchmarks.md).
bench-serve:
	@echo "bench-serve: GOMAXPROCS=$${GOMAXPROCS:-$$(nproc)}"
	$(GO) run ./cmd/fvserve -selftest -requests 30 -arrival-rate 40

# The benchmark's own tests: fvbench is a module of its own (so plain
# `go test ./...` does not reach it), and its tests run all three workloads
# at reduced size with full verification — every flux, solve and served
# result compared bit for bit against its serial reference.
bench-check:
	cd fvbench && $(GO) test -count=1 .

# The chaos suite under the race detector: a live serving stack through a
# seeded plan of engine panics, stalls and forced breakdowns, asserting
# ≥ 99% availability for the non-faulted requests, bit-identical hashes on
# every success, and a healthy daemon at the end.
chaos-smoke:
	$(GO) test -race -run TestChaos -count=1 ./internal/faultinject/

# Short native-fuzz exploration of the RCB partitioner, the radial mesh
# builder and the branch-free upwind select of the face flux (the checked-in
# seed corpora already run under plain `make test`). -fuzz accepts one
# target per invocation, hence one run each.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPartition$$' -fuzztime 10s ./internal/umesh/
	$(GO) test -run '^$$' -fuzz '^FuzzRadialMesh$$' -fuzztime 10s ./internal/umesh/
	$(GO) test -run '^$$' -fuzz '^FuzzFaceFluxRho$$' -fuzztime 10s ./internal/physics/

# Per-package coverage gate over the solver-path packages. Floors are pinned
# a few points under the measured numbers so genuine regressions fail while
# rounding noise does not. Current coverage (2026-08, PR 10):
#   internal/umesh  94.7%   internal/solver 89.7%   internal/exec 95.8%
#   internal/serve  90.8%   internal/loadgen 97.3%  internal/faultinject 86.8%
cover:
	@set -e; \
	check() { \
	  pct=$$($(GO) test -cover $$1 | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	  if [ -z "$$pct" ]; then echo "cover: no coverage reported for $$1"; exit 1; fi; \
	  echo "$$1: $$pct% (floor $$2%)"; \
	  if awk "BEGIN{exit !($$pct < $$2)}"; then \
	    echo "cover: $$1 coverage $$pct% fell below the pinned floor $$2%"; exit 1; \
	  fi; \
	}; \
	check ./internal/umesh/ 88; \
	check ./internal/solver/ 86; \
	check ./internal/exec/ 95; \
	check ./internal/serve/ 88; \
	check ./internal/loadgen/ 92; \
	check ./internal/faultinject/ 82

# Docs gate: the godoc Example functions (solver.CG, RunTransientPartitioned,
# SolveUnstructured) execute with output verification, the architecture and
# benchmark documents exist, the README links them, and every relative
# markdown cross-link in the top-level docs resolves to a real file.
docs-check:
	$(GO) test -run Example -count=1 ./internal/solver/ ./internal/umesh/ ./massivefv/
	@set -e; \
	for f in ARCHITECTURE.md docs/benchmarks.md; do \
	  [ -f "$$f" ] || { echo "docs-check: $$f is missing"; exit 1; }; \
	done; \
	grep -q 'ARCHITECTURE.md' README.md || { echo "docs-check: README.md does not link ARCHITECTURE.md"; exit 1; }; \
	grep -q 'docs/benchmarks.md' README.md || { echo "docs-check: README.md does not link docs/benchmarks.md"; exit 1; }; \
	for doc in README.md ARCHITECTURE.md ROADMAP.md docs/benchmarks.md; do \
	  dir=$$(dirname "$$doc"); \
	  for ref in $$(grep -oE '\]\([^)#]+\.md\)' "$$doc" | sed 's/^](//; s/)$$//'); do \
	    case "$$ref" in http*) continue;; esac; \
	    [ -f "$$dir/$$ref" ] || { echo "docs-check: $$doc links $$ref, which does not exist"; exit 1; }; \
	  done; \
	done; \
	echo "docs-check: examples ran, cross-links resolve"

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Everything the CI workflow gates on.
ci: build vet fmt-check test race cover docs-check bench-smoke bench-kernel bench-umesh bench-usolve bench-serve bench-check chaos-smoke fuzz-smoke
