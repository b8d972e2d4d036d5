package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/core"
	"pathfinder/internal/corpus"
	"pathfinder/internal/engine"
	"pathfinder/internal/navdom"
	"pathfinder/internal/opt"
	"pathfinder/internal/physical"
	"pathfinder/internal/serialize"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
	"pathfinder/internal/xquery"
)

// The in-process workloads: one closed-loop client running each query cold
// through the whole pipeline, the way cmd/pf and library callers do.

var (
	pathQueries = []int{1, 2, 3, 4, 5, 6, 7, 13, 14, 15, 16, 17, 18, 19, 20}
	joinQueries = []int{8, 9, 10, 11, 12}
)

// refreshEvery is how many passes share one shredded store. Constructors
// append their fragments to the store for its lifetime, so a store reused
// without limit grows with the number of passes; a fresh one every few
// passes bounds the growth by a constant that does not depend on how many
// passes fit in the window, which keeps peak_rss_mb independent of speed.
const refreshEvery = 8

// unknownRows is the service's default price of an unknown cardinality.
const unknownRows = 16384

type query struct {
	kind string // "q08", or "d17" for the 17th dialect query
	text string
	opts xqcore.Options
	want string // oracle output
	// wantNodes is the physical node count of the plan whose execution
	// matched the oracle; compile_only checks every later compile against it.
	wantNodes int
}

func allXMark() []int {
	nums := make([]int, xmark.NumQueries)
	for i := range nums {
		nums[i] = i + 1
	}
	return nums
}

func xmarkQueries(nums []int) []query {
	qs := make([]query, len(nums))
	for i, n := range nums {
		qs[i] = query{kind: fmt.Sprintf("q%02d", n), text: xmark.Query(n), opts: xqcore.Options{ContextDoc: docURI}}
	}
	return qs
}

// compiled is what the front end and the lowering pass produced for one query.
type compiled struct {
	logical *algebra.Op
	joins   core.Stats
	opt     opt.Result
	phys    *physical.Plan
}

// compilePlan is cmd/pf's front end: query text to optimized logical plan.
func compilePlan(q query) (*algebra.Op, error) {
	plan, _, err := core.CompileQuery(q.text, q.opts)
	if err != nil {
		return nil, err
	}
	return opt.Optimize(plan)
}

// runCold is one operation of the xmark workloads: the calls cmd/pf makes,
// in its order, with nothing kept from earlier queries.
func runCold(eng *engine.Engine, q query) (string, error) {
	plan, err := compilePlan(q)
	if err != nil {
		return "", err
	}
	// Lowered memoises by plan root; each cold op makes a new root, so
	// forget it as the MIL server does on eviction or the engine's plan
	// cache grows by one entry per operation.
	defer eng.ForgetPlan(plan)
	res, err := eng.EvalContext(context.Background(), plan)
	if err != nil {
		return "", err
	}
	return serialize.Result(eng.Store, res)
}

// layered makes the same calls as runCold one layer at a time, each through
// around, which times it or measures its allocation. A nil engine stops
// after lowering, which is all compile_only does.
func layered(eng *engine.Engine, q query, around func(layer string, call func())) (out string, c compiled, err error) {
	var ast *xquery.Query
	around("xquery.parse", func() { ast, err = xquery.Parse(q.text) })
	if err != nil {
		return "", c, err
	}
	var expr xqcore.Expr
	around("xqcore.normalize", func() { expr, err = xqcore.Normalize(ast, q.opts) })
	if err != nil {
		return "", c, err
	}
	around("core.compile", func() { c.logical, c.joins, err = core.CompileWithStats(expr) })
	if err != nil {
		return "", c, err
	}
	around("opt.pipeline", func() { c.opt, err = opt.Pipeline(c.logical) })
	if err != nil {
		return "", c, err
	}
	if eng == nil {
		around("physical.lower", func() { c.phys = physical.Lower(c.opt.Plan) })
		return "", c, nil
	}
	defer eng.ForgetPlan(c.opt.Plan)
	around("physical.lower", func() { c.phys = eng.Lowered(c.opt.Plan) })
	var res *bat.Table
	around("engine.eval", func() { res, err = eng.EvalContext(context.Background(), c.opt.Plan) })
	if err != nil {
		return "", c, err
	}
	around("serialize.result", func() { out, err = serialize.Result(eng.Store, res) })
	return out, c, err
}

func direct(_ string, call func()) { call() }

// planCounts sums the exact plan-shape counts over a query list.
func planCounts(cs []compiled) map[string]float64 {
	m := map[string]float64{}
	for _, c := range cs {
		in, out := algebra.CountOps(c.logical), algebra.CountOps(c.opt.Plan)
		m["core.ops"] += float64(in)
		m["core.equi_joins"] += float64(c.joins.EquiJoins)
		m["core.theta_joins"] += float64(c.joins.ThetaJoins)
		m["opt.ops_out"] += float64(out)
		m["opt.ops_removed"] += float64(in - out)
		rounds := 0
		for _, p := range c.opt.Trace {
			rounds = max(rounds, p.Round)
			m["opt.rewrites"] += float64(p.Rewrites)
		}
		m["opt.rounds"] += float64(rounds)
		m["physical.nodes"] += float64(len(c.phys.Nodes))
		m["physical.breakers"] += float64(c.phys.Breakers())
		m["physical.chains"] += float64(len(c.phys.Chains))
		for _, nd := range c.phys.Nodes {
			if nd.Parallel {
				m["physical.parallel_nodes"]++
			}
		}
		m["physical.est_cost"] += float64(c.phys.EstCost(unknownRows))
	}
	return m
}

// kernelClass maps an executed kernel name to its per-layer metric.
func kernelClass(st engine.OpStat) string {
	k := st.Kernel
	switch {
	case st.FusedChain > 0:
		return "engine.fused_ms"
	case k == "staircase":
		return "engine.staircase_ms"
	case strings.HasPrefix(k, "hash-"):
		return "engine.hashjoin_ms"
	case strings.HasPrefix(k, "merge-"):
		return "engine.mergejoin_ms"
	case strings.HasPrefix(k, "nested-product"):
		return "engine.product_ms"
	case strings.HasPrefix(k, "filter"):
		return "engine.filter_ms"
	case strings.HasPrefix(k, "map["):
		return "engine.map_ms"
	case strings.HasPrefix(k, "rownum["):
		return "engine.rownum_ms"
	case strings.HasPrefix(k, "aggr["):
		return "engine.aggr_ms"
	case strings.HasPrefix(k, "distinct"):
		return "engine.distinct_ms"
	case k == "elem" || k == "text" || k == "attr":
		return "engine.construct_ms"
	}
	return "engine.other_ms"
}

var kernelClasses = []string{
	"engine.staircase_ms", "engine.hashjoin_ms", "engine.mergejoin_ms", "engine.product_ms",
	"engine.filter_ms", "engine.map_ms", "engine.rownum_ms", "engine.aggr_ms", "engine.distinct_ms",
	"engine.construct_ms", "engine.fused_ms", "engine.other_ms",
}

// passSums collects one value per pass under each name and reports medians.
type passSums map[string][]float64

func (p passSums) addPass(m map[string]float64) {
	for k, v := range m {
		p[k] = append(p[k], v)
	}
}

func (p passSums) medians(into map[string]float64) {
	for k, xs := range p {
		into[k] = median(xs)
	}
}

// inproc is the state of one in-process workload run.
type inproc struct {
	cfg     config
	queries []query
	sf      float64        // 0: no document (compile_only)
	warmups int            // passes a set-up ends with
	doc     string         // "" for compile_only
	eng     *engine.Engine // default engine.Config, as cmd/pf builds it
	eng1    *engine.Engine // Workers: 1 over the same store, for the kernel pass
	shredMs []float64
	report  xenc.StorageReport // of the freshly shredded store, before any constructor ran
}

// load shreds the document into a fresh store and builds the engines.
func (w *inproc) load() error {
	if w.doc == "" {
		return nil
	}
	store := xenc.NewStore()
	t0 := time.Now()
	if _, err := store.LoadDocumentString(docURI, w.doc); err != nil {
		return fmt.Errorf("shred: %w", err)
	}
	w.shredMs = append(w.shredMs, ms(time.Since(t0)))
	w.report = store.Report()
	w.eng = engine.NewWithConfig(store, engine.Config{})
	w.eng1 = engine.NewWithConfig(store, engine.Config{Workers: 1})
	return nil
}

// op runs one untraced operation and checks its output.
func (w *inproc) op(q query) (time.Duration, error) {
	t0 := time.Now()
	if w.doc == "" {
		_, c, err := layered(nil, q, direct)
		d := time.Since(t0)
		if err == nil && len(c.phys.Nodes) != q.wantNodes {
			err = fmt.Errorf("plan has %d physical nodes, the validated plan had %d", len(c.phys.Nodes), q.wantNodes)
		}
		return d, err
	}
	out, err := runCold(w.eng, q)
	d := time.Since(t0)
	if err == nil && out != q.want {
		err = fmt.Errorf("output differs from the oracle's (%d bytes, want %d)", len(out), len(q.want))
	}
	return d, err
}

// setupOnce is everything a user pays before the first timed operation:
// generate and shred the document, build the engine, run warm-up passes.
func (w *inproc) setupOnce(int) error {
	if w.sf > 0 {
		w.doc = xmark.GenerateString(w.sf)
	}
	if err := w.load(); err != nil {
		return err
	}
	for i := 0; i < w.warmups; i++ {
		for _, q := range w.queries {
			if _, err := w.op(q); err != nil {
				return fmt.Errorf("warm-up %s: %w", q.kind, err)
			}
		}
	}
	return nil
}

// heapNoise is the live-heap difference below which the leak check does not
// speak: compile_only keeps a fifth of a megabyte live, and a tenth of that
// is what the runtime's own bookkeeping moves by.
const heapNoise = 4 * mb

// runInproc runs one in-process workload. sf 0 means no document.
func runInproc(cfg config, queries []query, sf float64, warmups int) (*outcome, error) {
	w := &inproc{cfg: cfg, queries: queries, sf: sf, warmups: warmups}
	out := newOutcome()

	if err := out.timeSetup(cfg, w.setupOnce); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	if cfg.trace {
		return out, w.traced(rng, out)
	}
	return out, w.untraced(rng, out)
}

func (w *inproc) untraced(rng *rand.Rand, out *outcome) error {
	lat := samples{}
	var passes []float64 // seconds
	var allocBytes uint64
	ops := 0
	if err := w.load(); err != nil {
		return err
	}
	heapStart := liveHeap()
	start := time.Now()
	halfway := false
	for pass := 0; pass == 0 || time.Since(start) < w.cfg.window; pass++ {
		switch {
		case !halfway && time.Since(start) >= w.cfg.window/2:
			// The second group of set-ups; it leaves a fresh store behind.
			halfway = true
			if err := out.timeSetup(w.cfg, w.setupOnce); err != nil {
				return err
			}
		case pass > 0 && pass%refreshEvery == 0:
			if err := w.load(); err != nil {
				return err
			}
		}
		runtime.GC()
		a0 := totalAlloc()
		passS := 0.0
		for _, i := range rng.Perm(len(w.queries)) {
			q := w.queries[i]
			d, err := w.op(q)
			out.attempted++
			if err != nil {
				out.fail("%s: %v", q.kind, err)
				continue
			}
			lat.add(q.kind, d)
			passS += d.Seconds()
			ops++
		}
		allocBytes += totalAlloc() - a0
		passes = append(passes, passS)
	}

	// The harness must not be what grows: with a fresh store, the live heap
	// after the last pass is the live heap before the first.
	if err := w.load(); err != nil {
		return err
	}
	heapEnd := liveHeap()
	runtime.KeepAlive(w) // the fresh store is part of what is compared
	out.stamp["heap_live_mb_start"] = float64(heapStart) / mb
	out.stamp["heap_live_mb_end"] = float64(heapEnd) / mb
	if growth := float64(heapEnd)/float64(heapStart) - 1; growth > 0.10 && heapEnd-heapStart > heapNoise {
		out.fail("live heap grew %.1f%% over %d passes on a fresh store: the harness leaks", 100*growth, len(passes))
	}

	if err := out.timeSetup(w.cfg, w.setupOnce); err != nil {
		return err
	}
	if err := w.peakRSS(out); err != nil {
		return err
	}

	mix := map[string]int{}
	for _, q := range w.queries {
		mix[q.kind] = 1
	}
	return out.endToEnd(lat, mix, passes, float64(allocBytes)/mb/float64(max(ops, 1)))
}

// memPasses extra passes measure memory, with the collector set to keep the
// heap within memGCPercent of the live data.
const (
	memPasses    = 5
	memGCPercent = 10
)

// peakRSS measures peak_rss_mb in passes of its own. The high-water mark of
// the timed passes is the wrong number twice over: it is set while set-up
// grows the heap from nothing, and under the default collector setting the
// heap swings between one and two times the live data, so the mark records
// where one collection cycle happened to end (630 to 850 MB from run to run
// on xmark_join). Here each pass starts on a fresh store with free pages
// returned and the mark restarted, and the collector holds the heap close
// to what the engine actually keeps alive; the peaks then repeat within a
// few percent and the median is the metric. Without /proc/self/clear_refs
// the metric falls back to the mark of the whole run.
func (w *inproc) peakRSS(out *outcome) error {
	perPass := resetPeakRSS()
	out.stamp["peak_rss_per_pass"] = perPass
	if !perPass {
		return nil
	}
	defer debug.SetGCPercent(debug.SetGCPercent(memGCPercent))
	var peaks []float64
	for i := 0; i < memPasses; i++ {
		if err := w.load(); err != nil {
			return err
		}
		resetPeakRSS()
		for _, q := range w.queries {
			out.attempted++
			if _, err := w.op(q); err != nil {
				out.fail("%s (memory pass): %v", q.kind, err)
			}
		}
		peak, err := peakRSSMB()
		if err != nil {
			return err
		}
		peaks = append(peaks, peak)
	}
	out.metrics["peak_rss_mb"] = median(peaks)
	return nil
}

// Pass kinds of a traced run, interleaved so that drift in the host's speed
// falls on all of them alike.
const (
	passPlain   = iota // untraced: the reference for the tracing overhead
	passSpans          // one span per layer call
	passAllocs         // allocation per layer call
	passKernels        // one worker, per-kernel wall time from EvalTrace
)

func (w *inproc) traced(rng *rand.Rand, out *outcome) error {
	kinds := []int{passPlain, passSpans, passAllocs, passKernels}
	if w.doc == "" {
		kinds = kinds[:3] // nothing executes
	}
	rec := newRecorder()
	var plain, plainLat, spanned []float64
	times, allocs, kernels := passSums{}, passSums{}, passSums{}
	var shapes []compiled
	opID := 0

	start := time.Now()
	for pass := 0; pass < len(kinds) || time.Since(start) < w.cfg.window; pass++ {
		if pass > 0 && pass%refreshEvery == 0 {
			if err := w.load(); err != nil {
				return err
			}
		}
		order := rng.Perm(len(w.queries))
		switch kinds[pass%len(kinds)] {
		case passPlain:
			total := 0.0
			for _, i := range order {
				d, err := w.op(w.queries[i])
				out.attempted++
				if err != nil {
					out.fail("%s: %v", w.queries[i].kind, err)
				}
				total += ms(d)
				plainLat = append(plainLat, ms(d))
			}
			plain = append(plain, total)

		case passSpans:
			first := len(rec.spans)
			total, bytesOut := 0.0, 0.0
			keep := shapes == nil
			for _, i := range order {
				q := w.queries[i]
				opID++
				root := rec.begin("op:"+q.kind, opID, -1)
				got, c, err := layered(w.eng, q, func(layer string, call func()) {
					id := rec.begin(layer, opID, root)
					call()
					rec.end(id)
				})
				rec.end(root)
				out.attempted++
				if err == nil && w.doc != "" && got != q.want {
					err = fmt.Errorf("output differs from the oracle's")
				}
				if err != nil {
					out.fail("%s (traced): %v", q.kind, err)
					continue
				}
				if keep {
					shapes = append(shapes, c)
				}
				total += ms(rec.spans[root].End - rec.spans[root].Start)
				bytesOut += float64(len(got))
			}
			spanned = append(spanned, total)
			sums := map[string]float64{"serialize.bytes_out": bytesOut}
			for _, s := range rec.spans[first:] {
				if s.Parent >= 0 {
					sums[s.Name+"_ms"] += ms(s.End - s.Start)
				}
			}
			times.addPass(sums)

		case passAllocs:
			sums := map[string]float64{}
			for _, i := range order {
				_, _, err := layered(w.eng, w.queries[i], func(layer string, call func()) {
					a0 := totalAlloc()
					call()
					module, _, _ := strings.Cut(layer, ".")
					sums[module+".alloc_mb"] += float64(totalAlloc()-a0) / mb
				})
				out.attempted++
				if err != nil {
					out.fail("%s (alloc pass): %v", w.queries[i].kind, err)
				}
			}
			allocs.addPass(sums)

		case passKernels:
			sums, err := w.kernelPass(order)
			out.attempted += len(order)
			if err != nil {
				out.fail("kernel pass: %v", err)
				continue
			}
			kernels.addPass(sums)
		}
	}

	m := out.metrics
	times.medians(m)
	allocs.medians(m)
	kernels.medians(m)
	for k, v := range planCounts(shapes) {
		m[k] = v
	}
	m["trace.coverage"] = rec.coverage()
	m["trace.overhead_frac"] = median(spanned)/median(plain) - 1
	out.asMeasured(plainLat, sum(plain)/1000)
	if w.doc != "" {
		if runtime.GOMAXPROCS(0) >= 2 {
			m["engine.scaleup"] = m["engine.workers1_eval_ms"] / m["engine.eval_ms"]
		} else {
			out.stamp["scaleup"] = "not recorded: fewer than 2 cores"
		}
		out.shredMetrics(len(w.doc), median(w.shredMs), w.report)
	}
	out.stamp["passes"] = map[string]int{"plain": len(plain), "spans": len(spanned), "allocs": len(allocs["xquery.alloc_mb"]), "kernels": len(kernels["engine.workers1_eval_ms"])}
	if w.cfg.traceOut != "" {
		return rec.writeJSONLines(w.cfg.traceOut)
	}
	return nil
}

// kernelPass evaluates every query three times: untraced on one worker (the
// per-core baseline), traced on one worker (kernel wall times do not overlap
// there, so they add up), and traced on the default engine (morsel counts).
func (w *inproc) kernelPass(order []int) (map[string]float64, error) {
	ctx := context.Background()
	sums := map[string]float64{"engine.workers1_eval_ms": 0, "engine.rows_out": 0, "engine.rows_materialized": 0, "engine.morsels": 0}
	for _, class := range kernelClasses {
		sums[class] = 0
	}
	for _, i := range order {
		q := w.queries[i]
		plan, err := compilePlan(q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.kind, err)
		}
		t0 := time.Now()
		_, err = w.eng1.EvalContext(ctx, plan)
		sums["engine.workers1_eval_ms"] += ms(time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.kind, err)
		}
		_, tr1, err := w.eng1.EvalTrace(ctx, plan)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.kind, err)
		}
		for _, st := range tr1.Stats {
			sums[kernelClass(st)] += ms(st.Wall)
			sums["engine.rows_out"] += float64(st.RowsOut)
			sums["engine.rows_materialized"] += float64(st.RowsMat)
		}
		_, trN, err := w.eng.EvalTrace(ctx, plan)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.kind, err)
		}
		for _, st := range trN.Stats {
			sums["engine.morsels"] += float64(st.Morsels)
		}
		w.eng1.ForgetPlan(plan)
		w.eng.ForgetPlan(plan)
	}
	inKernels := 0.0
	for _, class := range kernelClasses {
		inKernels += sums[class]
	}
	sums["engine.sched_ms"] = sums["engine.workers1_eval_ms"] - inKernels
	return sums, nil
}

// runXMark is xmark_path and xmark_join: the given XMark queries on one
// document of the big scale factor.
func runXMark(cfg config, nums []int, warmups int) (*outcome, error) {
	queries := xmarkQueries(nums)
	t0 := time.Now()
	if err := answerAll(xmark.GenerateString(cfg.bigSF()), queries); err != nil {
		return nil, err
	}
	if err := checkGolden(cfg.root, nums); err != nil {
		return nil, err
	}
	oracleS := time.Since(t0).Seconds()
	out, err := runInproc(cfg, queries, cfg.bigSF(), warmups)
	if out != nil {
		out.stamp["oracle_s"] = oracleS
	}
	return out, err
}

// runCompileOnly compiles the 20 XMark queries and the Table 2 dialect
// corpus down to physical plans and executes nothing in the timed part.
// Its correctness check: once, before timing, each plan is executed and
// compared (XMark against the pinned golden files, the dialect queries
// against navdom on the corpus document); every timed compile must then
// produce a plan of that validated shape.
func runCompileOnly(cfg config) (*outcome, error) {
	t0 := time.Now()
	if err := checkGolden(cfg.root, allXMark()); err != nil {
		return nil, err
	}
	queries := xmarkQueries(allXMark())
	for i, text := range corpus.Dialect {
		queries = append(queries, query{kind: fmt.Sprintf("d%02d", i+1), text: text, opts: xqcore.Options{ContextDoc: "auction.xml"}})
	}
	db := navdom.NewDB()
	if _, err := db.LoadString("auction.xml", corpus.AuctionDoc); err != nil {
		return nil, err
	}
	eng := engine.New(xenc.NewStore())
	if _, err := eng.Store.LoadDocumentString("auction.xml", corpus.AuctionDoc); err != nil {
		return nil, err
	}
	for i := range queries {
		q := &queries[i]
		_, c, err := layered(nil, *q, direct)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.kind, err)
		}
		q.wantNodes = len(c.phys.Nodes)
		if q.opts.ContextDoc != "auction.xml" {
			continue // XMark: checkGolden executed this plan shape
		}
		want, err := navdom.NewInterp(db).Run(q.text, q.opts)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", q.kind, err)
		}
		got, err := runCold(eng, *q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.kind, err)
		}
		if got != want {
			return nil, fmt.Errorf("%s: compiled plan answers %q, the oracle %q", q.kind, got, want)
		}
	}
	oracleS := time.Since(t0).Seconds()
	out, err := runInproc(cfg, queries, 0, 2)
	if out != nil {
		out.stamp["oracle_s"] = oracleS
	}
	return out, err
}
