package engine_test

// Differential harness for fused-chain execution: the same corpora as
// the scheduler and morsel differentials (all 20 XMark queries and the
// Table 2 dialect corpus) run with fusion enabled at workers ∈ {1,8}
// and tiny morsels, byte-compared against a -no-fusion baseline. The
// guarantee under test is the tentpole invariant: whether a chain runs
// as one vectorized loop or one kernel at a time must be unobservable
// in the output. The tests live in this package so that
// `go test -race ./internal/engine/` covers the fused morsel teams.

import (
	"context"
	"fmt"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/core"
	"pathfinder/internal/engine"
	"pathfinder/internal/opt"
	"pathfinder/internal/physical"
	"pathfinder/internal/serialize"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

// fusionEngine returns an engine with fusion live, tiny morsels, and
// the sequential fallback disabled, so fused chains split into morsel
// teams even on the sf=0.002 instance. Runtime checking stays on: every
// chain boundary is schema-verified.
func fusionEngine(t *testing.T, uri, doc string, workers int) *engine.Engine {
	t.Helper()
	e := engine.NewWithConfig(xenc.NewStore(), engine.Config{
		Workers:      workers,
		SeqThreshold: -1,
		MorselRows:   7,
		Check:        true,
	})
	if _, err := e.Store.LoadDocumentString(uri, doc); err != nil {
		t.Fatal(err)
	}
	return e
}

// noFusionEngine is the per-operator baseline: identical plans, fused
// chains executed one kernel at a time.
func noFusionEngine(t *testing.T, uri, doc string) *engine.Engine {
	t.Helper()
	e := engine.NewWithConfig(xenc.NewStore(), engine.Config{
		Workers: 1, Check: true, NoFusion: true,
	})
	if _, err := e.Store.LoadDocumentString(uri, doc); err != nil {
		t.Fatal(err)
	}
	return e
}

var fusionWorkerCounts = []int{1, 8}

// TestXMarkFusionDifferential: all 20 XMark queries, plain and
// optimized, fused at workers ∈ {1,8}, byte-compared against the
// unfused baseline.
func TestXMarkFusionDifferential(t *testing.T) {
	doc := xmark.GenerateString(diffSF)
	base := noFusionEngine(t, "xmark.xml", doc)
	engines := make(map[int]*engine.Engine, len(fusionWorkerCounts))
	for _, w := range fusionWorkerCounts {
		engines[w] = fusionEngine(t, "xmark.xml", doc, w)
	}
	opts := xqcore.Options{ContextDoc: "xmark.xml"}

	for n := 1; n <= xmark.NumQueries; n++ {
		src := xmark.Query(n)
		want, errB := core.Run(src, base, opts)
		optWant, errOB := runOptimized(t, src, base, opts)
		if errB != nil || errOB != nil {
			t.Errorf("Q%d: unfused baseline err=%v optimized err=%v", n, errB, errOB)
			continue
		}
		for _, w := range fusionWorkerCounts {
			got, err := core.Run(src, engines[w], opts)
			if err != nil {
				t.Errorf("Q%d workers=%d: %v", n, w, err)
				continue
			}
			if got != want {
				t.Errorf("Q%d workers=%d: fused result differs:\n unfused = %.400q\n fused   = %.400q", n, w, want, got)
			}
			optGot, err := runOptimized(t, src, engines[w], opts)
			if err != nil {
				t.Errorf("Q%d workers=%d optimized: %v", n, w, err)
				continue
			}
			if optGot != optWant {
				t.Errorf("Q%d workers=%d: optimized fused result differs:\n unfused = %.400q\n fused   = %.400q", n, w, optWant, optGot)
			}
		}
	}
}

// TestFusionMaterializesNoMore: on every XMark query's optimized plan,
// and on range-driven filter/map pipelines long enough to clear the
// FusedMinRows gate, a one-worker run with fusion live serializes to the
// same bytes as the per-operator run of the same plan and materializes at
// most as many rows (Σ OpStat.RowsMat) — a chain's interiors exist only
// as lanes, so fusing may only save. At SF 0.002 no XMark chain clears
// the gate; the pipelines are what runs fused, and each must.
func TestFusionMaterializesNoMore(t *testing.T) {
	store := xenc.NewStore()
	if _, err := store.LoadDocumentString("xmark.xml", xmark.GenerateString(diffSF)); err != nil {
		t.Fatal(err)
	}
	fused := engine.NewWithConfig(store, engine.Config{Workers: 1})
	unfused := engine.NewWithConfig(store, engine.Config{Workers: 1, NoFusion: true})
	run := func(e *engine.Engine, plan *algebra.Op) (out string, rowsMat int, chains bool) {
		res, tr, err := e.EvalTrace(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		if out, err = serialize.Result(e.Store, res); err != nil {
			t.Fatal(err)
		}
		for _, st := range tr.Stats {
			rowsMat += st.RowsMat
			chains = chains || st.FusedChain > 0
		}
		return out, rowsMat, chains
	}
	queries := map[string]string{}
	for n := 1; n <= xmark.NumQueries; n++ {
		queries[fmt.Sprintf("Q%d", n)] = xmark.Query(n)
	}
	pipelines := map[string]string{
		"filter-map":         "for $i in 1 to %d where $i mod 7 = 0 return $i * 2",
		"filter-map-map":     "for $i in 1 to %d where $i mod 3 = 0 return ($i * 2) + 1",
		"map-filter-map":     "for $i in 1 to %d where ($i + 5) mod 4 = 1 return $i - 1",
		"sum-filter-map":     "sum(for $i in 1 to %d where $i mod 7 = 0 return $i * 2)",
		"sum-filter-map-map": "sum(for $i in 1 to %d where $i mod 3 = 0 return ($i * 2) + 1)",
		"sum-map-filter-map": "sum(for $i in 1 to %d where ($i + 5) mod 4 = 1 return $i - 1)",
	}
	for name, pipeline := range pipelines {
		queries[name] = fmt.Sprintf(pipeline, 50_000)
	}
	for name, src := range queries {
		plan, _, err := core.CompileQuery(src, xqcore.Options{ContextDoc: "xmark.xml"})
		if err == nil {
			plan, err = opt.Optimize(plan)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fOut, f, chains := run(fused, plan)
		uOut, u, _ := run(unfused, plan)
		if fOut != uOut {
			t.Errorf("%s: fused result differs:\n unfused = %.400q\n fused   = %.400q", name, uOut, fOut)
		}
		if f > u {
			t.Errorf("%s: fused run materialized %d rows, per-operator run %d", name, f, u)
		}
		if _, isPipeline := pipelines[name]; isPipeline && !chains {
			t.Errorf("%s: no fused chain ran; the comparison covered per-operator runs only", name)
		}
	}
}

// TestDialectFusionDifferential: the Table 2 corpus, fused vs unfused,
// plain and optimized, at every worker count.
func TestDialectFusionDifferential(t *testing.T) {
	base := noFusionEngine(t, "auction.xml", auctionDoc)
	engines := make(map[int]*engine.Engine, len(fusionWorkerCounts))
	for _, w := range fusionWorkerCounts {
		engines[w] = fusionEngine(t, "auction.xml", auctionDoc, w)
	}
	opts := xqcore.Options{ContextDoc: "auction.xml"}

	for _, src := range dialectQueries {
		want, errB := core.Run(src, base, opts)
		if errB != nil {
			t.Errorf("%s: unfused baseline: %v", src, errB)
			continue
		}
		for _, w := range fusionWorkerCounts {
			got, err := core.Run(src, engines[w], opts)
			if err != nil {
				t.Errorf("%s workers=%d: %v", src, w, err)
				continue
			}
			if got != want {
				t.Errorf("%s workers=%d:\n unfused = %q\n fused   = %q", src, w, want, got)
			}
			optGot, err := runOptimized(t, src, engines[w], opts)
			if err != nil {
				t.Errorf("%s workers=%d optimized: %v", src, w, err)
				continue
			}
			if optGot != want {
				t.Errorf("%s workers=%d: optimized fused drifted:\n plain = %q\n opt = %q", src, w, want, optGot)
			}
		}
	}
}

// TestFusionChainsExercised proves the differentials above actually run
// fused code: a range-driven query big enough to clear the FusedMinRows
// gate must record chain membership in its trace, with the interior
// members carrying through-chain row counts and the tail the chain's
// wall time.
func TestFusionChainsExercised(t *testing.T) {
	e := engine.NewWithConfig(xenc.NewStore(), engine.Config{Workers: 1, Check: true})
	plan, _, err := core.CompileQuery(`for $i in 1 to 10000 where $i mod 7 = 0 return $i * 2`, xqcore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan, err = opt.Optimize(plan); err != nil {
		t.Fatal(err)
	}
	_, tr, err := e.EvalTrace(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	fused := 0
	for _, st := range tr.Stats {
		if st.FusedChain > 0 {
			fused++
			if st.FusedPos < 1 || st.FusedPos > st.FusedLen || st.FusedLen < 2 {
				t.Errorf("inconsistent chain membership: pos %d of %d", st.FusedPos, st.FusedLen)
			}
		}
	}
	if fused == 0 {
		t.Fatal("no operator ran inside a fused chain; the differential tier is not exercising fusion")
	}
	t.Logf("%d operators ran fused", fused)
}

// fusedChainPlan builds a map→filter→project pipeline over a literal
// wide enough to clear the FusedMinRows gate: exactly one fused chain
// of three members over n rows, half of which survive the filter.
func fusedChainPlan(t *testing.T, n int) (root, mapOp, selOp *algebra.Op) {
	t.Helper()
	a := make(bat.IntVec, n)
	b := make(bat.IntVec, n)
	for i := range a {
		a[i] = int64(i)
		b[i] = int64(i % 2)
	}
	lit := algebra.Lit(bat.MustTable("a", a, "b", b))
	fn, err := algebra.Fun(lit, "p", algebra.FunLt, "b", "a")
	if err != nil {
		t.Fatal(err)
	}
	sel, err := algebra.Select(fn, "p")
	if err != nil {
		t.Fatal(err)
	}
	pj, err := algebra.Project(sel, "a")
	if err != nil {
		t.Fatal(err)
	}
	return pj, fn, sel
}

// TestFusionTraceAccounting is the regression test for the trace
// materialization fix: tracing forces every chain interior to
// materialize a full table (the -show table contract), and that
// tracing-induced work must be charged to the trace, not to the chain's
// RowsMat. Interior members must report zero Wall and RowsMat even when
// their trace tables hold every row.
func TestFusionTraceAccounting(t *testing.T) {
	n := physical.FusedMinRows * 2
	plan, mapOp, selOp := fusedChainPlan(t, n)

	fused := engine.NewWithConfig(xenc.NewStore(), engine.Config{Workers: 1, Check: true})
	unfused := engine.NewWithConfig(xenc.NewStore(), engine.Config{Workers: 1, Check: true, NoFusion: true})

	res, tr, err := fused.EvalTrace(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	want, err := unfused.Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows() != want.Rows() {
		t.Fatalf("fused rows %d != unfused rows %d", res.Rows(), want.Rows())
	}

	for name, op := range map[string]*algebra.Op{"map": mapOp, "filter": selOp} {
		st, ok := tr.Stats[op]
		if !ok {
			t.Fatalf("no stat recorded for the %s member", name)
		}
		if st.FusedChain == 0 {
			t.Fatalf("%s member ran outside a chain (pos %d/%d); test premise broken", name, st.FusedPos, st.FusedLen)
		}
		if st.FusedPos == st.FusedLen {
			t.Fatalf("%s member is the chain tail; test premise broken", name)
		}
		if st.RowsMat != 0 {
			t.Errorf("%s interior charged RowsMat=%d; trace-forced materialization leaked into chain accounting", name, st.RowsMat)
		}
		if st.Wall != 0 {
			t.Errorf("%s interior charged Wall=%v; the tail owns the chain's wall time", name, st.Wall)
		}
		tab, ok := tr.Tables[op]
		if !ok || tab == nil {
			t.Fatalf("trace holds no table for the %s member; -show table would go blank", name)
		}
		if tab.Rows() != st.RowsOut {
			t.Errorf("%s trace table has %d rows, stat says %d", name, tab.Rows(), st.RowsOut)
		}
	}
	if st := tr.Stats[plan]; st.FusedChain == 0 || st.FusedPos != st.FusedLen {
		t.Errorf("projection tail not recorded as chain tail: %+v", st)
	}
}

// TestFusionTinyInputAllocations pins the tiny-input fast path: below
// the FusedMinRows gate no chains form, so enabling fusion must not
// cost a single extra allocation — no vector buffers, no selection
// vectors, no unit remapping.
func TestFusionTinyInputAllocations(t *testing.T) {
	plan, _, _ := fusedChainPlan(t, 16)
	fused := engine.NewWithConfig(xenc.NewStore(), engine.Config{Workers: 1})
	unfused := engine.NewWithConfig(xenc.NewStore(), engine.Config{Workers: 1, NoFusion: true})

	// Warm both paths once (plan-side caches, store state).
	if _, err := fused.Eval(plan); err != nil {
		t.Fatal(err)
	}
	if _, err := unfused.Eval(plan); err != nil {
		t.Fatal(err)
	}

	fusedAllocs := testing.AllocsPerRun(50, func() {
		if _, err := fused.Eval(plan); err != nil {
			t.Fatal(err)
		}
	})
	unfusedAllocs := testing.AllocsPerRun(50, func() {
		if _, err := unfused.Eval(plan); err != nil {
			t.Fatal(err)
		}
	})
	if fusedAllocs > unfusedAllocs {
		t.Errorf("tiny input: fusion-enabled engine allocates more (%v) than -no-fusion (%v); the EstRows gate is not skipping chain setup",
			fusedAllocs, unfusedAllocs)
	}
}
