# Build/test entry points. `make verify` is the tier-1 gate; `make race`
# is the concurrency tier covering plans shared by concurrent queries and
# the shared stores under the Go race detector.

GO ?= go

.PHONY: build test verify race golden fmt-check pfvet pfvet-sarif fuzz-smoke bench bench-join bench-path bench-compile bench-smoke bench-pipeline-smoke bench-step-smoke bench-exec-smoke bench-kernels-smoke bench-construct-smoke service-smoke store-smoke

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

# Short native-fuzzing smoke over the parser, lexer, compiler and document
# loader: runs each target briefly so CI catches shallow panics, every
# compiled plan through the optimizer and internal/check (FuzzCompile,
# seeded with nested constructors), the shredder's tokenizer against
# its encoding/xml reference (FuzzShredMatchesStdlib), shred → serialize
# → shred keeping every string (FuzzSerializeRoundTrip), ε's two sinks
# — the streamed bytes against the built fragment's, errors included
# (FuzzStreamedMatchesMaterialized) — and the typed compare, arith, ⋈ and
# ∪ kernels against the same columns boxed as ItemVecs
# (FuzzTypedKernelsMatchBoxed); long exploratory runs stay manual
# (go test -fuzz=... -fuzztime=5m).
fuzz-smoke:
	$(GO) test ./internal/xquery -fuzz FuzzParse -fuzztime 10s
	$(GO) test ./internal/xquery -fuzz FuzzLex -fuzztime 10s
	$(GO) test ./internal/core -fuzz FuzzCompile -fuzztime 10s
	$(GO) test ./internal/xenc -fuzz FuzzLoadDocument -fuzztime 10s
	$(GO) test ./internal/xenc -fuzz FuzzShredMatchesStdlib -fuzztime 10s
	$(GO) test ./internal/xenc -fuzz FuzzSerializeRoundTrip -fuzztime 10s
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzStreamedMatchesMaterialized -fuzztime 10s
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzTypedKernelsMatchBoxed -fuzztime 10s
	$(GO) test ./internal/service -fuzz FuzzNormalizeQuery -fuzztime 10s
	$(GO) test ./internal/opt -run '^$$' -fuzz FuzzPipelineMatchesReference -fuzztime 10s

# Race tier: the packages with query-time shared state — the engine
# (internal/engine: one lowered plan run on eight goroutines at once, and
# differential tests that run the differential runner, internal/difftest,
# over the executor with the theta-join nodes' band kernels live and
# forced onto their fallback), the column vectors
# (internal/bat), the string pools + fragment registry (internal/xenc),
# the concurrent service layer (internal/service + the MIL TCP server it
# embeds) and pfserver, whose graceful-shutdown test drives both front
# doors and Drain on live goroutines — plus the optimizer
# (internal/opt), whose contract is that concurrent Pipeline calls may
# share one input DAG: its plan index is a side structure and nothing is
# written into the caller's operators.
race:
	$(GO) test -race ./internal/engine/... ./internal/bat/... ./internal/xenc/... ./internal/service/... ./internal/mil/... ./internal/pfstore/... ./internal/opt/... ./internal/difftest/... ./cmd/pfserver/...

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
# (`-benchtime 100x -count 5` for numbers worth comparing), and the whole
# front end (parse → Core → core → opt) for four XMark queries, with the
# plan sizes as compiled (core-ops/plan) and as optimized (ops/plan): the
# opt-only sweep starts from compiled plans and cannot see what the
# compiler stops emitting. The allocation ceilings themselves are tests:
# TestPipelineAllocBudget for the pipeline alone,
# TestColdCompileBytesBudget for everything a point lookup the service
# has never seen allocates, compile to reply.
bench-pipeline-smoke:
	$(GO) test ./internal/opt -run '^$$' -bench Pipeline -benchtime 1x
	$(GO) test . -run '^$$' -bench Compile -benchtime 1x
	$(GO) test ./internal/service -run TestColdCompileBytesBudget -v

# CI smoke for the step-kernel micro-benchmark: many singleton
# iterations, one document-wide descendant scan and a nested-context run
# at SF 0.1, with allocation counts (`-benchtime 50x -count 5` for
# numbers worth comparing). The per-iteration allocation ceiling itself
# is a test (TestStepAllocBudget).
bench-step-smoke:
	$(GO) test ./internal/engine -run '^$$' -bench StepLoopLifted -benchtime 1x

# CI smoke for the executor's fixed price per operator: a chain of 46
# one-row π / × / literal operators and the service's point lookup at
# SF 0.01 (39 operators, most over one row), each evaluated once, with
# allocation counts, the operator count and ns per operator
# (`-benchtime 2000x -count 5` for numbers worth comparing). The
# allocation ceilings themselves are a test (TestOperatorAllocBudget).
bench-exec-smoke:
	$(GO) test ./internal/engine -run '^$$' -bench TinyPlan -benchtime 1x

# CI smoke for the join-tail kernel micro-benchmarks: δ, ϱ, ⋈ and aggr at
# XMark Q11's size, each fast path beside the kernel it shortcuts,
# count($l) over Q11's join from the bounds beside the same count through
# the pairs (SF 0.1 and SF 1 sizes), and Q8's atomize-and-join at SF 0.1
# on untyped vectors (hash-join[str]), with allocation counts (`-benchtime
# 50x -count 5` for numbers worth comparing). Every case asserts the
# kernel that ran; the allocation ceilings are a test (TestKernelAllocBudget).
# The second line runs a theta-join node at 1000 × 1000 through the band
# kernel and through its fallback over ×, ⊛, σ; it stays a line of its
# own because a slash in the pattern above would filter the sub-levels of
# the other benchmarks, and the 16000 × 4000 case (64 M product rows for
# the fallback) stays out of CI.
bench-kernels-smoke:
	$(GO) test ./internal/engine -run '^$$' -bench 'Distinct|RowNumSort|IntJoinDense|AggrRuns|ThetaCount|AtomizeJoin' -benchtime 1x
	$(GO) test ./internal/engine -run '^$$' -bench '^BenchmarkThetaJoin$$/^1000x1000$$' -benchtime 1x

# CI smoke for the result path: ε plus the serialization of its trees in
# its three XMark shapes (Q10's nested skeleton, the many-iterations ×
# tiny-content shape of Q8/Q9/Q11/Q12, one iteration × one large
# subtree), each through both sinks (fragment, stream), and the
# serializer over a 1 MB result, once each, with allocation counts
# (`-benchtime 100x -count 5` for numbers worth comparing). That ε's
# allocations do not grow with the nodes it copies, and that writing
# streamed trees allocates nothing per tree, are tests
# (TestConstructAllocBudget, TestStreamedTreesAllocateNothing).
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
