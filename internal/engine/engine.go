package engine

import (
	"context"
	"fmt"
	"math"
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
	// scheduler and run their units in order on the calling goroutine, so
	// micro-queries pay no synchronization tax. 0 means
	// DefaultSeqThreshold; negative disables the fallback entirely.
	SeqThreshold int

	// MorselRows is the morsel size for intra-operator parallelism:
	// kernels the lowering pass marked Parallel split inputs larger than
	// this into per-morsel work items executed on spare pool workers. 0
	// means DefaultMorselRows; negative disables morsel parallelism.
	MorselRows int

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

	// panicHook, when set, runs before every kernel (morsel -1) and before
	// every morsel a team runs — the test hook that makes kernels panic
	// where the executor must contain it.
	panicHook func(morsel int)
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

// run lowers the logical DAG to a physical plan of typed kernels
// (internal/physical) and executes it — sequentially for plans below the
// fallback threshold or on single-worker engines, otherwise on the
// parallel DAG scheduler.
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

// cancelStride is how many rows the long-running row loops (×, ⋈, range
// expansion) process between context checks: frequent enough that a
// deadline or first-error cancellation is observed mid-operator, cheap
// enough to vanish next to the per-row work.
const cancelStride = 4096

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
	var sumI intSum
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
		sumI.add(it.I)
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
			n, err := sumI.result()
			return bat.Int(n), err
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
		n, err := bat.RangeLen(l, h)
		if err != nil {
			return nil, err
		}
		for k := 0; k < n; k++ {
			if len(outItem)%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			outIter = append(outIter, iters[i])
			outPos = append(outPos, int64(k)+1)
			outItem = append(outItem, l+int64(k))
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
