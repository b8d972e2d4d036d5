package engine

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/opt"
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
// while the query gauge, plan cache, and resolver lock live in a
// shared core. ForStore/ForCollection derive a view over another store in
// a few words of allocation; all views share one set of gauges, so a
// multi-collection service behaves as a single engine for admission
// control.
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

	// Check enables runtime invariant assertions: after every kernel, the
	// output's columns are checked against the operator's declared schema,
	// and the sortedness/strictness/denseness properties the optimizer
	// publishes for the operator (opt.PlanProperties) are spot-checked
	// against the live rows (capped at CheckMaxRows per operator).
	// Evaluation fails loudly instead of producing a quietly wrong
	// answer. Meant for tests and `pf -check`; off in production.
	Check bool

	// checkProps holds, under Check, the properties asserted on each
	// node's output, indexed by physical.Node.Pos. Only the copy of the
	// engine that EvalPlan makes for one evaluation sets it.
	checkProps []opt.Props

	// forgeProps, when set, edits the properties Check mode derives
	// before the evaluation asserts them — the test hook that plants a
	// claim the rows violate.
	forgeProps func([]opt.Props)

	// sh is the shared core behind every view of this engine; see
	// engineShared.
	sh *engineShared

	// onApply, when set, observes every node's application exactly once
	// per evaluation, by the node's operator — the test hook behind the
	// memoization guarantees.
	onApply func(*algebra.Op)

	// thetaDemote, when non-empty, is a demotion reason every theta-join
	// node reports without trying the band kernel — the test hook that
	// runs the ×, ⊛, σ fallback on inputs the kernel would accept.
	thetaDemote string

	// panicHook, when set, runs before every kernel — the test hook that
	// makes kernels panic where the executor must contain it.
	panicHook func()
}

// engineShared is the state all views of one engine share: an in-flight
// query gauge, one resolver lock, and one plan cache. Compiled plans are
// store-agnostic (name tests resolve their surrogates at evaluation
// time), so the cache safely spans collections.
type engineShared struct {
	// queries counts the evaluations currently in flight — the per-query
	// accounting the service layer's admission control and the idle
	// assertions in the robustness tests build on.
	queries atomic.Int64

	// resolveMu serializes fn:doc cache misses so a document requested by
	// several concurrent queries is loaded exactly once.
	resolveMu sync.Mutex

	// plans caches lowered physical plans by logical root for the
	// evaluators that take a root (Eval, EvalContext, EvalTrace), so a
	// root evaluated many times pays the lowering pass once. Plan DAGs
	// are immutable after optimization; the cache is keyed by root
	// pointer identity. Callers that decide how long a plan lives hold
	// its lowering themselves and run it with EvalPlan.
	plans sync.Map // map[*algebra.Op]*physical.Plan
}

// Config bundles the options of engines built with NewWithConfig.
type Config struct {
	Check   bool    // assert schema/order/denseness invariants on live intermediates
	Catalog Catalog // collection-name resolver for ForCollection; nil = no named collections

	// Workers is never read: a plan runs on the goroutine that evaluates
	// it.
	//
	// Deprecated: benchmark/inproc.go is its last writer outside tests;
	// the benchmark-only change of ROADMAP item 1 deletes the field with
	// it.
	Workers int
}

// New returns an engine over the given store with the staircase join
// enabled.
func New(store *xenc.Store) *Engine {
	return &Engine{Store: store, Staircase: true, sh: &engineShared{}}
}

// NewWithConfig returns an engine with explicit configuration.
func NewWithConfig(store *xenc.Store, cfg Config) *Engine {
	e := New(store)
	e.Check = cfg.Check
	e.Cat = cfg.Catalog
	return e
}

// ForStore derives a view of this engine bound to another store: same
// gauges, same plan cache, different data. The view is a few
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
// variable bindings).
func (e *Engine) Eval(root *algebra.Op) (*bat.Table, error) {
	return e.EvalContext(context.Background(), root)
}

// EvalContext evaluates the plan under a context: cancellation and
// deadline expiry abort the evaluation, and are observed both between
// operators and inside the row loops of the long-running ones.
func (e *Engine) EvalContext(ctx context.Context, root *algebra.Op) (*bat.Table, error) {
	res, _, err := e.EvalPlan(ctx, e.Lowered(root), false)
	return res, err
}

// EvalTrace evaluates the plan and returns the full instrumentation
// record: per-operator intermediate tables plus statistics (wall time,
// rows in/out, kernel) — the §4 demo hook that lets plans "be traced to
// reveal the result computed for any subexpression".
func (e *Engine) EvalTrace(ctx context.Context, root *algebra.Op) (*bat.Table, *Trace, error) {
	return e.EvalPlan(ctx, e.Lowered(root), true)
}

// EvalPlan executes a physical plan of typed kernels (internal/physical)
// that the caller holds, one unit after the other on the calling
// goroutine (see execPlan). With traced set it also returns the
// instrumentation record (nil otherwise); cmd/pf's -show explain mode is
// built on it. The plan does not enter the engine's plan cache: whoever
// lowered it decides how long it lives, and one plan may run on many
// goroutines at once.
func (e *Engine) EvalPlan(ctx context.Context, plan *physical.Plan, traced bool) (*bat.Table, *Trace, error) {
	e.sh.queries.Add(1)
	defer e.sh.queries.Add(-1)
	var tr *Trace
	if traced {
		tr = newTrace()
	}
	if e.Check {
		props, err := e.checkPropsOf(plan)
		if err != nil {
			return nil, tr, err
		}
		v := *e
		v.checkProps = props
		e = &v
	}
	res, err := e.execPlan(ctx, plan, tr)
	return res, tr, err
}

// Lowered returns the cached physical plan for root, lowering the logical
// DAG on first use — the cache behind Eval and its siblings. Outside this
// package it remains for benchmark/, which prices and times the lowering
// of a root it then evaluates by root.
func (e *Engine) Lowered(root *algebra.Op) *physical.Plan {
	if cached, ok := e.sh.plans.Load(root); ok {
		return cached.(*physical.Plan)
	}
	plan := physical.Lower(root)
	e.sh.plans.Store(root, plan)
	return plan
}

// ForgetPlan drops the cached lowered plan for root, so the cache does
// not pin a root nobody will evaluate again. It remains for benchmark/,
// which evaluates by root; everyone else holds their lowering and runs
// it with EvalPlan.
func (e *Engine) ForgetPlan(root *algebra.Op) { e.sh.plans.Delete(root) }

// ActiveQueries reports how many evaluations are currently in flight on
// this engine — the service layer's per-engine accounting gauge. The
// robustness tests use it to assert that cancelled and disconnected
// queries stop promptly.
func (e *Engine) ActiveQueries() int64 { return e.sh.queries.Load() }

// cancelStride is how many rows the kernels' row loops process between
// context checks: frequent enough that a deadline or a client's
// cancellation is observed mid-operator, cheap enough to vanish next to
// the per-row work.
const cancelStride = 4096

// polled is the context's error at every cancelStride-th row i, nil at
// the others: the check a kernel's row loop makes on each row.
func polled(ctx context.Context, i int) error {
	if i%cancelStride != 0 {
		return nil
	}
	return ctx.Err()
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
	return joinGather(l, r, lIdx, rIdx)
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
		return bat.NewTable(newCol, bat.Typed(bat.ItemVec{it}))
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
	// Counts are integers even over no group, as aggrRuns' and
	// thetaCount's are; other results take the kind they share.
	aggOut := bat.NewItems(len(order))
	if agg == algebra.AggCount {
		aggOut = bat.NewVec(bat.TInt, len(order))
	}
	for _, k := range order {
		it, err := aggregate(agg, argVec, groups[k], sep)
		if err != nil {
			return nil, err
		}
		partOut.AppendItem(rep[k])
		aggOut.AppendItem(it)
	}
	return bat.NewTable(part, partOut.Build(), newCol, aggOut.Build())
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
// concurrent queries hitting the same URI load it exactly once.
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
	out := bat.NewTableCap(t.NumCols())
	for c := 0; c < t.NumCols(); c++ {
		name, v := t.ColName(c), t.ColVec(c)
		if name == "item" {
			v = item
		}
		if err := out.AddCol(name, v); err != nil {
			return nil, err
		}
	}
	return out, nil
}
