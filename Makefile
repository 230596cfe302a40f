# Standard verify entrypoint: `make check` runs vet, build, the
# project's own static analysis (sketchlint), the pinned third-party
# analyzers when present, the race-enabled test suite with and without
# the sanitize invariant layer, a short benchmark smoke pass, and the
# benchmark harness's own tests. Nothing here measures: timing comes
# from one place, `bash benchmark/run.sh` (see benchmark/README.md), as
# end-to-end metrics per workload and kernel.* / registry.* layer rows
# per family.

GO ?= go

# Third-party analyzers are pinned here for reproducibility but are
# NOT installed by this Makefile (CI images bake them in; dev machines
# may be offline). Targets run them when found on PATH and otherwise
# skip with a notice, so `make check` never fails for lack of a tool —
# only for what a tool found.
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: check lint staticcheck govulncheck vet build test race sanitize bench-smoke bench-server bench-harness fuzz wire-golden examples loc clean

check: vet build lint staticcheck govulncheck race sanitize bench-smoke bench-server bench-harness

# Project-specific analyzers: the two passes that catch bugs no test,
# -race run or sanitize assertion catches (DESIGN.md §7 is the mutation
# audit that kept them): lockflow (no decode, I/O or blocking under a
# lock) and mergecompat (no dropped merge error). Any diagnostic fails
# the build. The sanitize invariant layer is untagged code behind one
# constant, core.Sanitize, so a plain load lints it too: no build tag.
lint:
	$(GO) run ./cmd/sketchlint

# Regenerate the golden wire corpus under internal/codec/testdata/
# golden/: one committed frame per registered family. The corpus test
# fails on any byte-level drift until this is rerun deliberately; with
# each codec's round-trip and hostile-frame tests it is what pins the
# wire format.
wire-golden:
	$(GO) test ./internal/codec/ -run TestGoldenCorpus -update-golden

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not on PATH; skipping (pinned: $(STATICCHECK_VERSION))"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not on PATH; skipping (pinned: $(GOVULNCHECK_VERSION))"; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race-enabled suite with the runtime invariant layer switched on: the
# one sanitize tag sets core.Sanitize (internal/core/sanitize_on.go),
# and every family's hooks then hold each Update, Merge and decode to
# the laws its checkInvariants states. Without the tag the hooks are
# empty and inline away.
sanitize:
	$(GO) test -tags sanitize -race ./...

# Quick compile-and-run smoke over every Update/UpdateBatch benchmark
# (100 iterations keeps it a few seconds, not a measurement), the
# ε-kernel's interior filter on its four input shapes (three 8192-point
# chunks each), the sort kernel against slices.Sort on rotating inputs,
# the q-digest's and the ε-approximation's edge report and aggregator
# merge, the edge report of GK and of the three families whose batches
# collapse (and the collapse kernel under them: 8192 Zipf items over
# 2048 keys, rotating chunks), and one decode+merge of every registered
# family through the registry — the aggregator's unit cost, which no
# per-family list can forget a family of; -benchmem because its
# allocs/op column is the steady-state figure TestDecodeMergeAllocs pins
# at 0.
bench-smoke:
	$(GO) test -run='^$$' -bench=Update -benchtime=100x .
	$(GO) test -run='^$$' -bench=BenchmarkUpdate -benchtime=3x ./internal/kernel/
	$(GO) test -run='^$$' -bench=SortKernel -benchtime=100x ./internal/core/
	$(GO) test -run='^$$' -bench=UpdateBatch -benchtime=10x -benchmem ./internal/core/ ./internal/gk/ ./internal/spacesaving/ ./internal/topk/ ./internal/distinct/
	$(GO) test -run='^$$' -bench=. -benchtime=10x -benchmem ./internal/qdigest/ ./internal/epsapprox/
	$(GO) test -run='^$$' -bench=RegistryDecodeMerge -benchtime=1x -benchmem ./internal/registry/

# Compile-and-run smoke over the server merge-plane benchmarks (push,
# batched push, cached pull); one iteration each keeps it a liveness
# check, not a measurement.
bench-server:
	$(GO) test -run='^$$' -bench=Server -benchtime=1x ./internal/server/

# The repository benchmark (benchmark/, run by `bash benchmark/run.sh`)
# is a module of its own, so `./...` from the root never reaches its
# tests: run the harness's unit tests and its -quick smoke run here.
bench-harness:
	cd benchmark && $(GO) test ./...

# Run the seven examples/ programs. Each checks the guarantees it
# prints (an error against its summary's bound, a missed heavy hitter,
# an interval that misses the exact count) and exits non-zero when one
# breaks, so a clean pass is an end-to-end check of the public API.
examples:
	@for e in examples/*/; do echo "== $$e"; $(GO) run ./$$e || exit 1; done

# Minimizing a newly interesting input can hold a worker for its whole
# default minute with no executions; a second is plenty for these
# byte programs.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzUpdateBatch -fuzztime=30s -fuzzminimizetime=1s ./internal/mg/
	$(GO) test -run='^$$' -fuzz=FuzzUpdateMatchesFullScan -fuzztime=30s -fuzzminimizetime=1s ./internal/kernel/
	$(GO) test -run='^$$' -fuzz=FuzzFlushMatchesTwoPass -fuzztime=30s -fuzzminimizetime=1s ./internal/gk/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeAnyFrame -fuzztime=30s -fuzzminimizetime=1s ./internal/registry/
	$(GO) test -run='^$$' -fuzz=FuzzIndex -fuzztime=30s -fuzzminimizetime=1s ./internal/core/

# Non-test Go lines per package directory: the per-package figures
# CHANGES.md reports for each PR (testdata fixtures and the benchmark's
# build cache are not source).
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' -not -path './.bench_build/*' \
		-exec dirname {} \; | sort -u | while read -r d; do \
		printf '%6d %s\n' "$$(find "$$d" -maxdepth 1 -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)" "$$d"; \
	done

clean:
	$(GO) clean ./...
