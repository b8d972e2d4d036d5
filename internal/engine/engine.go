package engine

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/physical"
	"pathfinder/internal/xenc"
)

// Catalog resolves collection names to opened stores — the engine-facing
// face of pfstore.Catalog (an interface here so the engine does not
// depend on the persistence layer). The returned generation changes
// whenever the collection's content is republished; prepared-plan caches
// fold it into their keys.
type Catalog interface {
	Collection(name string) (store *xenc.Store, generation uint64, err error)
}

// Engine evaluates algebra plans. It owns a document store (constructors
// append fragments to it) and an optional resolver that loads documents on
// first fn:doc access.
//
// An engine is a view: the store binding (Store, Collection) is per-view,
// while the scheduler accounting, plan cache, and resolver lock live in a
// shared core. ForStore/ForCollection derive a view over another store in
// a few words of allocation; all views draw from one worker budget and
// one plan cache, so a multi-collection service behaves as a single
// engine for admission control and plan reuse.
type Engine struct {
	Store *xenc.Store

	// Collection names the collection Store holds, "" for an anonymous
	// store (documents loaded directly). fn:collection resolves against
	// it: one evaluation binds to exactly one store, since node refs are
	// store-local surrogate indexes.
	Collection string

	// Cat, when set, resolves collection names for ForCollection — the
	// hook the service and commands install a *pfstore.Catalog into.
	Cat Catalog

	// Resolve is consulted when fn:doc names a document that is not yet
	// loaded; nil means unknown documents are an error.
	Resolve func(store *xenc.Store, uri string) (bat.NodeRef, error)

	// Staircase selects the tree-aware staircase join (true, the paper's
	// configuration) or the naive region-query fallback (false, the
	// ablation baseline).
	Staircase bool

	// Deadline, when non-zero, aborts evaluation with an error once
	// exceeded (propagated through the evaluation context and observed
	// mid-operator in the row loops of ×, ⋈ and range) — the benchmark
	// harness's DNF mechanism.
	Deadline time.Time

	// Workers bounds the parallel DAG scheduler's worker pool. 0 means
	// runtime.GOMAXPROCS(0); 1 forces sequential evaluation.
	Workers int

	// SeqThreshold is the operator count below which plans skip the
	// scheduler and run on the sequential recursive evaluator, so
	// micro-queries pay no synchronization tax. 0 means
	// DefaultSeqThreshold; negative disables the fallback entirely.
	SeqThreshold int

	// MorselRows is the morsel size for intra-operator parallelism:
	// kernels the lowering pass marked Parallel split inputs larger than
	// this into per-morsel work items executed on spare pool workers. 0
	// means DefaultMorselRows; negative disables morsel parallelism.
	MorselRows int

	// NoFusion disables fused-chain execution: every physical operator
	// runs its own kernel even where the lowering identified a fusable
	// chain. Fusion is an executor-time switch, not a lowering switch —
	// plans (and the shared plan cache) are identical either way, the
	// executor just ignores the chain metadata. The escape hatch behind
	// pf/pfserver -no-fusion, and the baseline the fusion benchmark and
	// differential tests compare against.
	NoFusion bool

	// Legacy selects the original recursive interpreter over the logical
	// algebra, bypassing the physical lowering pass. It is kept as the
	// reference semantics for the differential tests and the baseline the
	// physical-plan benchmark measures against.
	Legacy bool

	// Check enables runtime invariant assertions: after every kernel, the
	// output's columns are checked against the operator's declared schema,
	// and the sortedness/strictness/denseness bits the plan carries are
	// spot-checked against the live rows (capped at CheckMaxRows per
	// operator). Evaluation fails loudly instead of producing a quietly
	// wrong answer. Meant for tests and `pf -check`; off in production.
	Check bool

	// sh is the shared core behind every view of this engine; see
	// engineShared.
	sh *engineShared

	// onApply, when set, observes every operator application exactly once
	// per evaluation — the test hook behind the memoization guarantees.
	onApply func(*algebra.Op)

	// thetaDemote, when non-empty, is a demotion reason every theta-join
	// unit reports without trying the band kernel — the test hook that
	// runs the ×, ⊛, σ path on inputs the kernel would accept.
	thetaDemote string
}

// engineShared is the state all views of one engine share: a single
// worker budget, a single in-flight query gauge, one resolver lock, and
// one plan cache. Compiled plans are store-agnostic (name tests resolve
// their surrogates at evaluation time), so the cache safely spans
// collections — callers key their own prepared-statement layers by
// (query, collection, generation) and the engine caches per plan root.
type engineShared struct {
	// working counts the pool workers currently executing an operator —
	// the shared budget between the DAG scheduler and the morsel teams.
	// Operator hosts hold one slot while running a kernel; morsel teams
	// reserve only the spare slots (see reserveWorkers), so both
	// parallelism levels together never exceed WorkerCount goroutines.
	working atomic.Int32

	// queries counts the evaluations currently in flight — the per-query
	// accounting the service layer's admission control and the idle
	// assertions in the robustness tests build on.
	queries atomic.Int64

	// resolveMu serializes fn:doc cache misses so a document requested by
	// several parallel workers is loaded exactly once.
	resolveMu sync.Mutex

	// plans caches lowered physical plans by logical root, so a plan
	// evaluated many times (REPL, server, benchmark repeats) pays the
	// lowering pass once. Plan DAGs are immutable after optimization;
	// the cache is keyed by root pointer identity.
	plans sync.Map // map[*algebra.Op]*physical.Plan
}

// Config bundles the scheduler knobs for engines built with NewWithConfig.
type Config struct {
	Workers      int     // worker pool size; 0 = GOMAXPROCS
	SeqThreshold int     // sequential-fallback operator count; 0 = DefaultSeqThreshold
	MorselRows   int     // morsel size; 0 = DefaultMorselRows, negative disables
	NoFusion     bool    // disable fused-chain execution (run every kernel standalone)
	Legacy       bool    // run the legacy logical interpreter instead of physical plans
	Check        bool    // assert schema/order/denseness invariants on live intermediates
	Catalog      Catalog // collection-name resolver for ForCollection; nil = no named collections
}

// DefaultSeqThreshold is the plan size below which parallel dispatch is
// not worth the synchronization: the plans of simple path queries stay
// under it, the loop-lifted XMark join queries (~50–120 operators after
// optimization) clear it comfortably.
const DefaultSeqThreshold = 16

// New returns an engine over the given store with the staircase join
// enabled.
func New(store *xenc.Store) *Engine {
	return &Engine{Store: store, Staircase: true, sh: &engineShared{}}
}

// NewWithConfig returns an engine with explicit scheduler configuration.
func NewWithConfig(store *xenc.Store, cfg Config) *Engine {
	e := New(store)
	e.Workers = cfg.Workers
	e.SeqThreshold = cfg.SeqThreshold
	e.MorselRows = cfg.MorselRows
	e.NoFusion = cfg.NoFusion
	e.Legacy = cfg.Legacy
	e.Check = cfg.Check
	e.Cat = cfg.Catalog
	return e
}

// ForStore derives a view of this engine bound to another store: same
// scheduler budget, same plan cache, different data. The view is a few
// words of allocation, cheap enough to mint per request.
func (e *Engine) ForStore(store *xenc.Store, collection string) *Engine {
	if store == e.Store && collection == e.Collection {
		return e
	}
	v := *e
	v.Store = store
	v.Collection = collection
	return &v
}

// ForCollection resolves a collection name through the engine's catalog
// and returns a view bound to it plus the collection's current
// generation. An empty name keeps the engine's own binding (generation
// 0: anonymous stores have no republication counter). A named collection
// always resolves through the catalog — even when it matches the current
// binding — so a republished collection is picked up on the next request.
func (e *Engine) ForCollection(name string) (*Engine, uint64, error) {
	if name == "" {
		return e, 0, nil
	}
	if e.Cat == nil {
		if name == e.Collection {
			return e, 0, nil
		}
		return nil, 0, fmt.Errorf("collection %q: no catalog configured", name)
	}
	store, gen, err := e.Cat.Collection(name)
	if err != nil {
		return nil, 0, err
	}
	return e.ForStore(store, name), gen, nil
}

// Eval evaluates the plan DAG rooted at root. Shared subplans are
// evaluated once per call (the DAG memoization MonetDB gets from MIL
// variable bindings). Independent subplans are dispatched onto a bounded
// worker pool when the plan is large enough to pay for it (see
// EvalContext).
func (e *Engine) Eval(root *algebra.Op) (*bat.Table, error) {
	return e.EvalContext(context.Background(), root)
}

// EvalContext evaluates the plan under a context: cancellation and
// deadline expiry abort the evaluation, and are observed both between
// operators and inside the row loops of the long-running ones. The
// engine's Deadline field, when set, is merged into the context.
func (e *Engine) EvalContext(ctx context.Context, root *algebra.Op) (*bat.Table, error) {
	res, _, err := e.run(ctx, root, false)
	return res, err
}

// EvalTraced evaluates the plan and additionally returns every operator's
// materialized intermediate result — the §4 demo hook that lets plans "be
// traced to reveal the result computed for any subexpression".
func (e *Engine) EvalTraced(root *algebra.Op) (*bat.Table, map[*algebra.Op]*bat.Table, error) {
	res, tr, err := e.run(context.Background(), root, true)
	if err != nil {
		return nil, tr.Tables, err
	}
	return res, tr.Tables, nil
}

// EvalTrace evaluates the plan and returns the full instrumentation
// record: per-operator intermediate tables plus scheduling statistics
// (wall time, rows in/out, worker id). cmd/pf's -show explain mode is
// built on it.
func (e *Engine) EvalTrace(ctx context.Context, root *algebra.Op) (*bat.Table, *Trace, error) {
	return e.run(ctx, root, true)
}

// run picks the evaluation strategy. The default path lowers the logical
// DAG to a physical plan of typed kernels (internal/physical) and
// executes it — sequentially for plans below the fallback threshold or on
// single-worker engines, otherwise on the parallel DAG scheduler. The
// Legacy flag selects the original recursive interpreter over the logical
// algebra instead.
func (e *Engine) run(ctx context.Context, root *algebra.Op, traced bool) (*bat.Table, *Trace, error) {
	e.sh.queries.Add(1)
	defer e.sh.queries.Add(-1)
	if !e.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, e.Deadline)
		defer cancel()
	}
	var tr *Trace
	if traced {
		tr = newTrace()
	}
	if e.Legacy {
		if e.WorkerCount() <= 1 || algebra.CountOps(root) < e.seqThreshold() {
			res, err := e.evalSequential(ctx, root, tr)
			return res, tr, err
		}
		tr.setScheduled()
		res, err := e.evalParallel(ctx, root, tr)
		return res, tr, err
	}
	plan := e.Lowered(root)
	if e.WorkerCount() <= 1 || len(plan.Nodes) < e.seqThreshold() {
		res, err := e.physSequential(ctx, plan, tr)
		return res, tr, err
	}
	tr.setScheduled()
	res, err := e.physParallel(ctx, plan, tr)
	return res, tr, err
}

// Lowered returns the cached physical plan for root, lowering the logical
// DAG on first use. The service layer uses it as its admission hook: a
// query is priced off the same lowered plan (EstRows, operator count) the
// executor will run, and the lowering cost is paid once per distinct plan
// root no matter how many tenants share it.
func (e *Engine) Lowered(root *algebra.Op) *physical.Plan {
	if cached, ok := e.sh.plans.Load(root); ok {
		return cached.(*physical.Plan)
	}
	plan := physical.Lower(root)
	e.sh.plans.Store(root, plan)
	return plan
}

// ForgetPlan drops the cached lowered plan for root. Callers that cache
// parsed plans themselves (the MIL server's program cache) call this on
// eviction so the physical-plan cache does not pin evicted roots forever.
func (e *Engine) ForgetPlan(root *algebra.Op) { e.sh.plans.Delete(root) }

// ActiveQueries reports how many evaluations are currently in flight on
// this engine — the service layer's per-engine accounting gauge.
func (e *Engine) ActiveQueries() int64 { return e.sh.queries.Load() }

// ActiveWorkers reports how many pool workers are currently executing an
// operator kernel; 0 means the scheduler is idle. The robustness tests
// use it to assert that cancelled and disconnected queries release their
// workers promptly.
func (e *Engine) ActiveWorkers() int { return int(e.sh.working.Load()) }

func (e *Engine) seqThreshold() int {
	switch {
	case e.SeqThreshold == 0:
		return DefaultSeqThreshold
	case e.SeqThreshold < 0:
		return 0
	}
	return e.SeqThreshold
}

// evalSequential is the recursive single-worker evaluator — the fallback
// path for small plans and the reference semantics the differential tests
// compare the scheduler against.
func (e *Engine) evalSequential(ctx context.Context, root *algebra.Op, tr *Trace) (*bat.Table, error) {
	ev := &evaluation{e: e, ctx: ctx, memo: make(map[*algebra.Op]*bat.Table), trace: tr}
	return ev.eval(root)
}

type evaluation struct {
	e     *Engine
	ctx   context.Context
	memo  map[*algebra.Op]*bat.Table
	trace *Trace
}

func (ev *evaluation) eval(o *algebra.Op) (*bat.Table, error) {
	if t, ok := ev.memo[o]; ok {
		return t, nil
	}
	if err := ev.ctx.Err(); err != nil {
		return nil, err
	}
	in := make([]*bat.Table, len(o.In))
	for i, child := range o.In {
		t, err := ev.eval(child)
		if err != nil {
			return nil, err
		}
		in[i] = t
	}
	start := time.Now() //pfvet:allow determinism -- trace wall-time only, not query results
	t, err := ev.e.apply(ev.ctx, o, in)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.Kind, err)
	}
	if ev.e.Check {
		if err := checkSchemaAgainst(t.Cols(), o.Schema()); err != nil {
			return nil, fmt.Errorf("%s: %w", o.Kind, err)
		}
	}
	ev.memo[o] = t
	if ev.trace != nil {
		//pfvet:allow determinism -- trace wall-time only, not query results
		ev.trace.record(o, t, OpStat{Wall: time.Since(start), RowsIn: rowsIn(in), RowsOut: t.Rows(), Worker: 0})
	}
	return t, nil
}

func rowsIn(in []*bat.Table) int {
	n := 0
	for _, t := range in {
		n += t.Rows()
	}
	return n
}

func (e *Engine) apply(ctx context.Context, o *algebra.Op, in []*bat.Table) (*bat.Table, error) {
	if e.onApply != nil {
		e.onApply(o)
	}
	switch o.Kind {
	case algebra.OpLit:
		return o.Lit, nil
	case algebra.OpProject:
		specs := make([]string, len(o.Proj))
		for i, p := range o.Proj {
			specs[i] = p.New + ":" + p.Old
		}
		return in[0].Project(specs...)
	case algebra.OpSelect:
		return evalSelect(in[0], o.Col)
	case algebra.OpUnion:
		return evalUnion(in[0], in[1])
	case algebra.OpDiff:
		return evalDiff(in[0], in[1], o.KeyL, o.KeyR)
	case algebra.OpDistinct:
		return evalDistinct(in[0])
	case algebra.OpJoin:
		return evalJoin(ctx, in[0], in[1], o.KeyL, o.KeyR, joinFull)
	case algebra.OpSemiJoin:
		return evalJoin(ctx, in[0], in[1], o.KeyL, o.KeyR, joinSemi)
	case algebra.OpCross:
		return evalCross(ctx, in[0], in[1])
	case algebra.OpRowNum:
		return evalRowNum(in[0], o.Col, o.Order, o.Part)
	case algebra.OpRowID:
		t := in[0].Slice(0, in[0].Rows())
		if err := t.AddCol(o.Col, bat.Ramp(1, in[0].Rows())); err != nil {
			return nil, err
		}
		return t, nil
	case algebra.OpFun:
		return e.evalFun(in[0], o)
	case algebra.OpAggr:
		return evalAggr(in[0], o.Col, o.Agg, o.Args, o.Part, o.Sep)
	case algebra.OpStep:
		return e.evalStep(&morsels{e: e, ctx: ctx}, in[0], o.Axis, o.Test)
	case algebra.OpDoc:
		return e.evalDoc(in[0])
	case algebra.OpRoots:
		return e.evalRoots(in[0])
	case algebra.OpElem:
		return e.evalElem(in[0], in[1])
	case algebra.OpText:
		return e.evalText(in[0])
	case algebra.OpAttrC:
		return e.evalAttrC(in[0], in[1])
	case algebra.OpRange:
		return e.evalRange(ctx, in[0], o.KeyL[0], o.KeyL[1])
	case algebra.OpColl:
		return e.evalColl(in[0])
	}
	return nil, fmt.Errorf("unimplemented operator")
}

// cancelStride is how many rows the long-running row loops (×, ⋈, range
// expansion) process between context checks: frequent enough that a
// deadline or first-error cancellation is observed mid-operator, cheap
// enough to vanish next to the per-row work.
const cancelStride = 4096

// σ ---------------------------------------------------------------------------

func evalSelect(t *bat.Table, col string) (*bat.Table, error) {
	v, err := t.Col(col)
	if err != nil {
		return nil, err
	}
	var idx []int32
	for i := 0; i < t.Rows(); i++ {
		it := v.ItemAt(i)
		if it.Kind != bat.KBool {
			return nil, fmt.Errorf("σ over non-boolean column %q (row %d is %s)", col, i, it.Kind)
		}
		if it.B {
			idx = append(idx, int32(i))
		}
	}
	return t.Gather(idx), nil
}

// ∪ ---------------------------------------------------------------------------

func evalUnion(l, r *bat.Table) (*bat.Table, error) {
	out := &bat.Table{}
	for _, name := range l.Cols() {
		lv := l.MustCol(name)
		rv, err := r.Col(name)
		if err != nil {
			return nil, err
		}
		var merged bat.Vec
		if lv.Type() == rv.Type() {
			b := lv.New(lv.Len() + rv.Len())
			for i := 0; i < lv.Len(); i++ {
				b.AppendFrom(lv, i)
			}
			for i := 0; i < rv.Len(); i++ {
				b.AppendFrom(rv, i)
			}
			merged = b.Build()
		} else {
			iv := make(bat.ItemVec, 0, lv.Len()+rv.Len())
			for i := 0; i < lv.Len(); i++ {
				iv = append(iv, lv.ItemAt(i))
			}
			for i := 0; i < rv.Len(); i++ {
				iv = append(iv, rv.ItemAt(i))
			}
			merged = iv
		}
		if err := out.AddCol(name, merged); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Key hashing -----------------------------------------------------------------

// rowKey encodes the key columns of row i into a compact string usable as
// a hash map key.
func rowKey(buf []byte, vecs []bat.Vec, i int) []byte {
	for _, v := range vecs {
		k := v.ItemAt(i).Key()
		buf = append(buf, byte(k.Kind))
		u := uint64(k.I)
		if k.Kind == bat.KFloat {
			u = math.Float64bits(k.F)
		}
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(u>>s))
		}
		buf = append(buf, k.S...)
		buf = append(buf, 0)
	}
	return buf
}

// \ and δ ----------------------------------------------------------------------

func evalDiff(l, r *bat.Table, keyL, keyR []string) (*bat.Table, error) {
	rv, err := colVecs(r, keyR)
	if err != nil {
		return nil, err
	}
	if len(keyL) == 1 {
		if lInts, ok := mustVec(l, keyL[0]).(bat.IntVec); ok {
			if rInts, ok := rv[0].(bat.IntVec); ok {
				set := make(map[int64]struct{}, len(rInts))
				for _, k := range rInts {
					set[k] = struct{}{}
				}
				var idx []int32
				for i, k := range lInts {
					if _, hit := set[k]; !hit {
						idx = append(idx, int32(i))
					}
				}
				return l.Gather(idx), nil
			}
		}
	}
	set := make(map[string]struct{}, r.Rows())
	var buf []byte
	for i := 0; i < r.Rows(); i++ {
		buf = rowKey(buf[:0], rv, i)
		set[string(buf)] = struct{}{}
	}
	lv, err := colVecs(l, keyL)
	if err != nil {
		return nil, err
	}
	var idx []int32
	for i := 0; i < l.Rows(); i++ {
		buf = rowKey(buf[:0], lv, i)
		if _, ok := set[string(buf)]; !ok {
			idx = append(idx, int32(i))
		}
	}
	return l.Gather(idx), nil
}

func evalDistinct(t *bat.Table) (*bat.Table, error) {
	vecs, err := colVecs(t, t.Cols())
	if err != nil {
		return nil, err
	}
	idx, _ := distinctIndices(vecs, t.Rows(), nil, 0)
	return t.Gather(idx), nil
}

func colVecs(t *bat.Table, names []string) ([]bat.Vec, error) {
	vecs := make([]bat.Vec, len(names))
	for i, n := range names {
		v, err := t.Col(n)
		if err != nil {
			return nil, err
		}
		vecs[i] = v
	}
	return vecs, nil
}

// ⋈ and ⋉ -----------------------------------------------------------------------

type joinMode uint8

const (
	joinFull joinMode = iota
	joinSemi
)

func evalJoin(ctx context.Context, l, r *bat.Table, keyL, keyR []string, mode joinMode) (*bat.Table, error) {
	rv, err := colVecs(r, keyR)
	if err != nil {
		return nil, err
	}
	// Fast path for the dominant case: a single dense-integer key (the
	// iter/inner/outer joins loop-lifting emits everywhere).
	if len(keyL) == 1 {
		if lInts, ok := mustVec(l, keyL[0]).(bat.IntVec); ok {
			if rInts, ok := rv[0].(bat.IntVec); ok {
				return intJoin(ctx, l, r, lInts, rInts, mode)
			}
		}
	}
	ht := make(map[string][]int32, r.Rows())
	var buf []byte
	for i := 0; i < r.Rows(); i++ {
		buf = rowKey(buf[:0], rv, i)
		ht[string(buf)] = append(ht[string(buf)], int32(i))
	}
	lv, err := colVecs(l, keyL)
	if err != nil {
		return nil, err
	}
	var lIdx, rIdx []int32
	for i := 0; i < l.Rows(); i++ {
		if i%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		buf = rowKey(buf[:0], lv, i)
		matches := ht[string(buf)]
		if mode == joinSemi {
			if len(matches) > 0 {
				lIdx = append(lIdx, int32(i))
			}
			continue
		}
		for _, j := range matches {
			lIdx = append(lIdx, int32(i))
			rIdx = append(rIdx, j)
		}
	}
	if mode == joinSemi {
		return l.Gather(lIdx), nil
	}
	out := l.Gather(lIdx)
	rg := r.Gather(rIdx)
	for _, name := range r.Cols() {
		if err := out.AddCol(name, rg.MustCol(name)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func mustVec(t *bat.Table, name string) bat.Vec {
	v, err := t.Col(name)
	if err != nil {
		return nil
	}
	return v
}

// intJoin is the typed hash join over a single integer key column.
func intJoin(ctx context.Context, l, r *bat.Table, lk, rk bat.IntVec, mode joinMode) (*bat.Table, error) {
	ht := make(map[int64][]int32, len(rk))
	for i, k := range rk {
		ht[k] = append(ht[k], int32(i))
	}
	var lIdx, rIdx []int32
	for i, k := range lk {
		if i%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		matches := ht[k]
		if mode == joinSemi {
			if len(matches) > 0 {
				lIdx = append(lIdx, int32(i))
			}
			continue
		}
		for _, j := range matches {
			lIdx = append(lIdx, int32(i))
			rIdx = append(rIdx, j)
		}
	}
	if mode == joinSemi {
		return l.Gather(lIdx), nil
	}
	out := l.Gather(lIdx)
	rg := r.Gather(rIdx)
	for _, name := range r.Cols() {
		if err := out.AddCol(name, rg.MustCol(name)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// × ------------------------------------------------------------------------------

func evalCross(ctx context.Context, l, r *bat.Table) (*bat.Table, error) {
	nl, nr := l.Rows(), r.Rows()
	// Rows are addressed by int32 throughout the executor; a larger
	// product must fail here, before the index vectors are sized.
	if nl > 0 && nr > math.MaxInt32/nl {
		return nil, fmt.Errorf("cross product of %d × %d rows exceeds the executor's row limit", nl, nr)
	}
	lIdx := make([]int32, 0, nl*nr)
	rIdx := make([]int32, 0, nl*nr)
	// The output row loop checks the context by produced rows, not input
	// rows: a single 10⁶×10⁶ product must notice a deadline long before
	// its outer loop advances even once per stride.
	produced := 0
	for i := 0; i < nl; i++ {
		for j := 0; j < nr; j++ {
			if produced%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			produced++
			lIdx = append(lIdx, int32(i))
			rIdx = append(rIdx, int32(j))
		}
	}
	out := l.Gather(lIdx)
	rg := r.Gather(rIdx)
	for _, name := range r.Cols() {
		if err := out.AddCol(name, rg.MustCol(name)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ϱ ------------------------------------------------------------------------------

func evalRowNum(t *bat.Table, newCol string, order []algebra.OrderSpec, part string) (*bat.Table, error) {
	out, _, err := rowNumSort(t, order, part)
	if err != nil {
		return nil, err
	}
	if err := rowNumAttach(out, newCol, part); err != nil {
		return nil, err
	}
	return out, nil
}

// rowNumSort brings t into ϱ's (partition, order...) order and reports
// whether the input was already sorted. Sorted inputs are returned as a
// column-sharing slice (no row copies) — the order-property fast path
// (the paper's [3]): loop-lifting emits many ϱ operators over inputs
// that are already in numbering order, e.g. a freshly stepped iter|item
// table, and a linear scan detects this and skips the sort, the analogue
// of MonetDB's no-cost void numbering.
func rowNumSort(t *bat.Table, order []algebra.OrderSpec, part string) (*bat.Table, bool, error) {
	var partVec bat.Vec
	if part != "" {
		v, err := t.Col(part)
		if err != nil {
			return nil, false, err
		}
		partVec = v
	}
	ordVecs := make([]bat.Vec, len(order))
	for i, o := range order {
		v, err := t.Col(o.Col)
		if err != nil {
			return nil, false, err
		}
		ordVecs[i] = v
	}
	less := func(ia, ib int) int {
		if partVec != nil {
			if c := bat.CompareTotal(partVec.ItemAt(ia), partVec.ItemAt(ib)); c != 0 {
				return c
			}
		}
		for k, o := range order {
			c := bat.CompareTotal(ordVecs[k].ItemAt(ia), ordVecs[k].ItemAt(ib))
			if o.Desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	}
	sorted := true
	for i := 1; i < t.Rows(); i++ {
		if less(i-1, i) > 0 {
			sorted = false
			break
		}
	}
	if sorted {
		return t.Slice(0, t.Rows()), true, nil
	}
	idx := make([]int32, t.Rows())
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return less(int(idx[a]), int(idx[b])) < 0 })
	return t.Gather(idx), false, nil
}

// rowNumAttach appends ϱ's numbering column to a table already in
// (partition, order...) order, restarting at 1 on every partition change.
func rowNumAttach(out *bat.Table, newCol, part string) error {
	var outPart bat.Vec
	if part != "" {
		outPart = out.MustCol(part)
	}
	nums := make(bat.IntVec, out.Rows())
	var n int64
	for i := range nums {
		if i == 0 || outPart != nil && bat.CompareTotal(
			outPart.ItemAt(i), outPart.ItemAt(i-1)) != 0 {
			n = 0
		}
		n++
		nums[i] = n
	}
	return out.AddCol(newCol, nums)
}

// Aggregates -----------------------------------------------------------------

func evalAggr(t *bat.Table, newCol string, agg algebra.AggKind, args []string, part, sep string) (*bat.Table, error) {
	var argVec bat.Vec
	if len(args) > 0 {
		v, err := t.Col(args[0])
		if err != nil {
			return nil, err
		}
		argVec = v
	}
	if part == "" {
		it, err := aggregate(agg, argVec, allRows(t.Rows()), sep)
		if err != nil {
			return nil, err
		}
		return bat.NewTable(newCol, bat.ItemVec{it})
	}
	partVec, err := t.Col(part)
	if err != nil {
		return nil, err
	}
	groups := make(map[bat.Key][]int32)
	var order []bat.Key
	rep := make(map[bat.Key]bat.Item)
	for i := 0; i < t.Rows(); i++ {
		k := partVec.ItemAt(i).Key()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
			rep[k] = partVec.ItemAt(i)
		}
		groups[k] = append(groups[k], int32(i))
	}
	partOut := bat.NewVec(partVec.Type(), len(order))
	aggOut := make(bat.ItemVec, 0, len(order))
	for _, k := range order {
		it, err := aggregate(agg, argVec, groups[k], sep)
		if err != nil {
			return nil, err
		}
		partOut.AppendItem(rep[k])
		aggOut = append(aggOut, it)
	}
	return bat.NewTable(part, partOut.Build(), newCol, aggOut)
}

func allRows(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

func aggregate(agg algebra.AggKind, arg bat.Vec, rows []int32, sep string) (bat.Item, error) {
	if agg == algebra.AggCount {
		return bat.Int(int64(len(rows))), nil
	}
	if agg == algebra.AggStrJoin {
		var sb strings.Builder
		for i, r := range rows {
			if i > 0 {
				sb.WriteString(sep)
			}
			it := arg.ItemAt(int(r))
			if it.Kind == bat.KNode {
				return bat.Item{}, fmt.Errorf("string-join over node items (stringify first)")
			}
			sb.WriteString(it.StringValue())
		}
		return bat.Str(sb.String()), nil
	}
	if len(rows) == 0 {
		if agg == algebra.AggSum {
			return bat.Int(0), nil
		}
		return bat.Item{}, fmt.Errorf("%s over empty group", agg)
	}
	allInt := true
	var sumI int64
	var sumF float64
	minIt, maxIt := arg.ItemAt(int(rows[0])), arg.ItemAt(int(rows[0]))
	for _, r := range rows {
		it := arg.ItemAt(int(r))
		if it.Kind == bat.KNode {
			return bat.Item{}, fmt.Errorf("%s over node items (atomize first)", agg)
		}
		f := it.AsFloat()
		if f != f { // NaN
			return bat.Item{}, fmt.Errorf("%s: %q is not numeric", agg, it.StringValue())
		}
		if it.Kind != bat.KInt {
			allInt = false
		}
		sumI += it.I
		sumF += f
		if c := bat.CompareTotal(it, minIt); c < 0 {
			minIt = it
		}
		if c := bat.CompareTotal(it, maxIt); c > 0 {
			maxIt = it
		}
	}
	switch agg {
	case algebra.AggSum:
		if allInt {
			return bat.Int(sumI), nil
		}
		return bat.Float(sumF), nil
	case algebra.AggMin:
		return minIt, nil
	case algebra.AggMax:
		return maxIt, nil
	case algebra.AggAvg:
		return bat.Float(sumF / float64(len(rows))), nil
	}
	return bat.Item{}, fmt.Errorf("unknown aggregate")
}

// fn:doc / fn:root ------------------------------------------------------------

func (e *Engine) evalDoc(t *bat.Table) (*bat.Table, error) {
	v, err := t.Col("item")
	if err != nil {
		return nil, err
	}
	out := make(bat.NodeVec, t.Rows())
	for i := 0; i < t.Rows(); i++ {
		uri := v.ItemAt(i).StringValue()
		ref, err := e.Store.Doc(uri)
		if err != nil {
			ref, err = e.resolveDoc(uri)
			if err != nil {
				return nil, err
			}
		}
		out[i] = ref
	}
	return replaceItem(t, out)
}

// resolveDoc loads an unknown document through the resolver, serialized so
// parallel workers hitting the same URI load it exactly once.
func (e *Engine) resolveDoc(uri string) (bat.NodeRef, error) {
	e.sh.resolveMu.Lock()
	defer e.sh.resolveMu.Unlock()
	if ref, err := e.Store.Doc(uri); err == nil {
		return ref, nil
	}
	if e.Resolve == nil {
		return bat.NodeRef{}, fmt.Errorf("fn:doc: document %q not loaded", uri)
	}
	return e.Resolve(e.Store, uri)
}

func (e *Engine) evalRoots(t *bat.Table) (*bat.Table, error) {
	v, err := t.Col("item")
	if err != nil {
		return nil, err
	}
	out := make(bat.NodeVec, t.Rows())
	for i := 0; i < t.Rows(); i++ {
		it := v.ItemAt(i)
		if it.Kind != bat.KNode {
			return nil, fmt.Errorf("fn:root over non-node item")
		}
		out[i] = e.Store.Root(it.N)
	}
	return replaceItem(t, out)
}

// evalColl expands each (iter, name) row into the document sequence of
// the named collection, in shard-manifest (load) order — the fn:collection
// kernel. Node refs are store-local, so one evaluation is bound to exactly
// one store: the name must match the engine's bound collection (or be
// empty, XQuery's "default collection", which is whatever the evaluation
// is bound to). Requests against another collection get their own engine
// view via ForCollection.
func (e *Engine) evalColl(t *bat.Table) (*bat.Table, error) {
	iters, err := t.Ints("iter")
	if err != nil {
		return nil, err
	}
	v, err := t.Col("item")
	if err != nil {
		return nil, err
	}
	var docs []xenc.DocEntry
	outIter := bat.IntVec{}
	outPos := bat.IntVec{}
	outItem := bat.NodeVec{}
	for i := 0; i < t.Rows(); i++ {
		name := v.ItemAt(i).StringValue()
		if name != "" && name != e.Collection {
			if e.Collection == "" {
				return nil, fmt.Errorf("fn:collection: no collection bound to this evaluation (want %q); submit the query against that collection", name)
			}
			return nil, fmt.Errorf("fn:collection: collection %q is not the bound collection %q; submit the query against it", name, e.Collection)
		}
		if docs == nil {
			docs = e.Store.DocsInOrder()
		}
		for k, d := range docs {
			outIter = append(outIter, iters[i])
			outPos = append(outPos, int64(k)+1)
			outItem = append(outItem, d.Root)
		}
	}
	return bat.NewTable("iter", outIter, "pos", outPos, "item", outItem)
}

// evalRange expands each (iter, lo, hi) row into the integer sequence
// lo..hi.
func (e *Engine) evalRange(ctx context.Context, t *bat.Table, loCol, hiCol string) (*bat.Table, error) {
	iters, err := t.Ints("iter")
	if err != nil {
		return nil, err
	}
	lo, err := t.Col(loCol)
	if err != nil {
		return nil, err
	}
	hi, err := t.Col(hiCol)
	if err != nil {
		return nil, err
	}
	outIter := bat.IntVec{}
	outPos := bat.IntVec{}
	outItem := bat.IntVec{}
	for i := 0; i < t.Rows(); i++ {
		l, err1 := lo.ItemAt(i).AsInt()
		h, err2 := hi.ItemAt(i).AsInt()
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("range over non-integer bounds")
		}
		if h-l > 50_000_000 {
			return nil, fmt.Errorf("range %d..%d too large", l, h)
		}
		for k := l; k <= h; k++ {
			if len(outItem)%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			outIter = append(outIter, iters[i])
			outPos = append(outPos, k-l+1)
			outItem = append(outItem, k)
		}
	}
	return bat.NewTable("iter", outIter, "pos", outPos, "item", outItem)
}

// replaceItem rebuilds t with the item column substituted, all other
// columns passing through.
func replaceItem(t *bat.Table, item bat.Vec) (*bat.Table, error) {
	out := &bat.Table{}
	for _, name := range t.Cols() {
		v := t.MustCol(name)
		if name == "item" {
			v = item
		}
		if err := out.AddCol(name, v); err != nil {
			return nil, err
		}
	}
	return out, nil
}
