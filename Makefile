# Build/test entry points. `make verify` is the tier-1 gate; `make race`
# is the concurrency tier covering the parallel scheduler and the shared
# stores under the Go race detector.

GO ?= go

.PHONY: build test verify race golden fmt-check pfvet pfvet-sarif fuzz-smoke bench bench-join bench-path bench-compile bench-smoke bench-pipeline-smoke bench-step-smoke bench-kernels-smoke bench-construct-smoke service-smoke store-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

verify: build test

# gofmt cleanliness gate: fails listing the offending files.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Project-specific static analysis (cmd/pfvet). Per-package checks
# (shared-vector mutation, kernel determinism, context polling in row
# loops, by-value sync state, map-order determinism) plus the
# interprocedural suite (lock ordering and
# lock-across-I/O, columnar ownership on publish paths, goroutine
# lifecycle/drain discipline, service-boundary error classification).
# `go run ./cmd/pfvet -rules lockorder,errclass` runs a subset locally.
pfvet:
	$(GO) run ./cmd/pfvet

# Same analysis, also writing a SARIF 2.1.0 log for CI annotation. The
# file is written even when the tree is clean (uploaders want a log per
# run), and the exit status still fails the build on findings.
pfvet-sarif:
	$(GO) run ./cmd/pfvet -sarif pfvet.sarif

# Short native-fuzzing smoke over the parser, lexer, and document loader:
# runs each target briefly so CI catches shallow panics, and the shredder's
# tokenizer against its encoding/xml reference (FuzzShredMatchesStdlib);
# long exploratory runs stay manual (go test -fuzz=... -fuzztime=5m).
fuzz-smoke:
	$(GO) test ./internal/xquery -fuzz FuzzParse -fuzztime 10s
	$(GO) test ./internal/xquery -fuzz FuzzLex -fuzztime 10s
	$(GO) test ./internal/xenc -fuzz FuzzLoadDocument -fuzztime 10s
	$(GO) test ./internal/xenc -fuzz FuzzShredMatchesStdlib -fuzztime 10s
	$(GO) test ./internal/service -fuzz FuzzNormalizeQuery -fuzztime 10s

# Race tier: the packages with query-time shared state — the scheduler
# (internal/engine, which includes the morsel, fusion and theta-join
# differential files: the band join's morsels fill disjoint ranges of
# shared index vectors), the column vectors (internal/bat), the string
# pools + fragment registry (internal/xenc), and the concurrent service
# layer (internal/service + the MIL TCP server it embeds) — plus the
# optimizer (internal/opt), whose contract is that concurrent Pipeline
# calls may share one input DAG: its plan index is a side structure and
# nothing is written into the caller's operators.
race:
	$(GO) test -race ./internal/engine/... ./internal/bat/... ./internal/xenc/... ./internal/service/... ./internal/mil/... ./internal/pfstore/... ./internal/opt/...

# Full-repo race run (slower; includes the differential suites).
race-all:
	$(GO) test -race ./...

# Regenerate the pinned XMark query outputs after an intentional change.
golden:
	$(GO) test ./internal/engine -run TestXMarkGolden -update

# The repository's benchmark (benchmark/, declared in BENCHMARK.json):
# every workload, tracing off and on, every metric by name; ~7 min.
bench:
	$(GO) run ./benchmark

# One end-to-end run of the join workload, as the PR driver runs it: the
# command behind every before/after pair for an executor join change.
bench-join:
	$(GO) run ./benchmark --workload xmark_join --seed 1 --seconds 35 --trace 0

# One end-to-end run of the path workload (XMark q01–q07, q13–q20: nearly
# all staircase join). It is not gated by BENCHMARK.json, so a step-kernel
# change claims its gain on xmark_join and reports pairs of this command.
bench-path:
	$(GO) run ./benchmark --workload xmark_path --seed 1 --seconds 35 --trace 0

# One end-to-end run of the front-end workload (parse → physical plan for
# the 20 XMark queries and the dialect corpus, nothing executes): the
# command behind every before/after pair for a compiler or optimizer
# change.
bench-compile:
	$(GO) run ./benchmark --workload compile_only --seed 1 --seconds 35 --trace 0

# CI smoke for the benchmark itself: every workload and metric at
# SF 0.002, outputs checked against the goldens and the oracle; ~10 s.
bench-smoke:
	$(GO) test ./benchmark

# CI smoke for the optimizer micro-benchmark: one opt.Pipeline sweep over
# XMark q01–q20 and one over the dialect corpus with allocation counts
# (`-benchtime 100x -count 5` for numbers worth comparing). The
# allocation ceilings themselves are tests: TestPipelineAllocBudget for
# the pipeline alone, TestColdCompileBytesBudget for everything a point
# lookup the service has never seen allocates, compile to reply.
bench-pipeline-smoke:
	$(GO) test ./internal/opt -run '^$$' -bench Pipeline -benchtime 1x
	$(GO) test ./internal/service -run TestColdCompileBytesBudget -v

# CI smoke for the step-kernel micro-benchmark: many singleton
# iterations, one document-wide descendant scan and a nested-context run
# at SF 0.1, with allocation counts (`-benchtime 50x -count 5` for
# numbers worth comparing). The per-iteration allocation ceiling itself
# is a test (TestStepAllocBudget).
bench-step-smoke:
	$(GO) test ./internal/engine -run '^$$' -bench StepLoopLifted -benchtime 1x

# CI smoke for the join-tail kernel micro-benchmarks: δ, ϱ, ⋈ and aggr at
# XMark Q11's size, each fast path beside the kernel it shortcuts, and
# count($l) over Q11's join from the bounds beside the same count through
# the pairs (SF 0.1 and SF 1 sizes), with allocation counts (`-benchtime
# 50x -count 5` for numbers worth comparing). Every case asserts the
# kernel that ran; the allocation ceiling is a test (TestKernelAllocBudget).
bench-kernels-smoke:
	$(GO) test ./internal/engine -run '^$$' -bench 'Distinct|RowNumSort|IntJoinDense|AggrRuns|ThetaCount' -benchtime 1x

# CI smoke for the result path: ε in its three XMark shapes (Q10's copy
# of a copy, the many-iterations × tiny-content shape of Q8/Q9/Q11/Q12,
# one iteration × one large subtree) and the serializer over a 1 MB
# result, once each, with allocation counts (`-benchtime 100x -count 5`
# for numbers worth comparing). That ε's allocations do not grow with the
# nodes it copies is a test (TestConstructAllocBudget).
bench-construct-smoke:
	$(GO) test ./internal/engine -run '^$$' -bench ElemConstruct -benchtime 1x
	$(GO) test ./internal/serialize -run '^$$' -bench SerializeResult -benchtime 1x

# CI smoke for the service path: a real pfserver process (HTTP + TCP),
# curl driving point lookups and Q8 joins over /query/text, /stats
# scraped, completions asserted, and a graceful TERM shutdown checked.
service-smoke:
	./scripts/service_smoke.sh

# CI smoke for the store path: persist a collection through one pfserver,
# restart over the same catalog directory, and assert the second process
# answers collection queries without ever seeing the source XML.
store-smoke:
	./scripts/store_smoke.sh
