package opt

// Differential tests of the worklist pipeline against the round driver
// it replaced (refPipeline, reference_test.go). CheckAgainstReference is
// the per-plan check; differential_corpus_test.go (package opt_test,
// which may import the compiler and internal/check) drives it over XMark
// q01–q20, the Table 2 dialect corpus and seeded random DAGs, and
// FuzzPipelineMatchesReference over fuzzed seeds.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// CheckAgainstReference runs root through the pipeline and through the
// round driver, and asserts:
//
//   - after every rule that fired and when the worklist is done, the
//     incrementally maintained state equals what a fresh derivation
//     gives on the DAG as it is then (assertState), and the checks did
//     not change the plan the pipeline makes without them;
//   - the pipeline fails exactly where the round driver does, and its
//     plan validates;
//   - with strict, the plan has no more operators than the round
//     driver's, and is the round driver's wherever the counts are
//     equal. Without, the two plans are not compared here: the rules are
//     not confluent — a projection nobody demands a column of keeps one
//     pair, and which one depends on what was demanded of it before; a
//     ϱ under a projection that drops its column can become a mark
//     before the splice reaches it, and the splice removes only ϱ — so
//     the worklist, which sees states the round driver's batched rounds
//     never did, can end elsewhere. A caller that is not strict
//     evaluates both plans (differential_corpus_test.go);
//   - the input is not mutated.
//
// It returns the pipeline's and the round driver's plans (nil on an
// error both runs share) and the number of splices the pipeline made.
func CheckAgainstReference(t testing.TB, root *algebra.Op, strict bool) (got, want *algebra.Op, splices int) {
	t.Helper()
	before := algebra.TreeString(root)
	res, gotErr := runPipeline(root, popsPerOp, func(r *rewriter) {
		assertState(t, r)
		splices = r.fired[ruleSplice]
	})
	want, _, wantErr := refPipeline(root)
	if gotErr != nil && wantErr == nil {
		t.Fatalf("pipeline error %v, the round driver has none", gotErr)
	}
	if after := algebra.TreeString(root); after != before {
		t.Fatal("pipeline mutated its input plan")
	}
	if gotErr != nil {
		return nil, nil, 0
	}
	if wantErr != nil {
		t.Fatalf("round driver error %v, the pipeline has none", wantErr)
	}
	got = res.Plan
	if err := algebra.Validate(got); err != nil {
		t.Fatalf("pipeline plan is invalid: %v", err)
	}
	gs := algebra.TreeString(got)
	if plain, err := Optimize(root); err != nil || algebra.TreeString(plain) != gs {
		t.Fatalf("the state checks changed the pipeline's plan (error %v)", err)
	}
	if !strict {
		return got, want, splices
	}
	g, w := algebra.CountOps(got), algebra.CountOps(want)
	if g > w {
		t.Fatalf("pipeline plan has %d operators, the round driver's %d:\n%s\nround driver:\n%s", g, w, gs, algebra.TreeString(want))
	}
	if ws := algebra.TreeString(want); g == w && gs != ws {
		t.Fatalf("pipeline plan differs from the round driver's at %d operators:\n%s\nround driver:\n%s", g, gs, ws)
	}
	return got, want, splices
}

// assertState checks everything the rewriter maintains incrementally
// against a from-scratch derivation on the DAG as it is now: the index
// (inputs, consumer edges, liveness), the interning table (every live
// operator is filed, and no two share a signature), the property memos,
// the demand and the order sensitivity.
func assertState(t testing.TB, r *rewriter) {
	t.Helper()
	x := r.x
	root := x.root()
	fresh := NewPropertyEngine()
	snap := fresh.Snapshot(root)
	consumers := algebra.Consumers(root)
	if len(snap) != x.live() {
		t.Fatalf("index has %d live operators, the DAG %d", x.live(), len(snap))
	}
	r.need.settle(r.narrowed)
	needed := refDemandMap(root)
	r.sense.settle(r.splice.push)
	matters := refOrderMatters(root, fresh.p)
	for i, o := range x.ops {
		i := int32(i)
		if _, reachable := snap[o]; reachable == x.dead[i] {
			t.Fatalf("operator %d (%s): dead=%v but reachable=%v", i, o.Kind, x.dead[i], reachable)
		}
		if x.dead[i] {
			continue
		}
		for k, c := range x.inputs(i) {
			if x.ops[c] != o.In[k] || x.dead[c] {
				t.Fatalf("operator %d (%s): index input %d is stale", i, o.Kind, k)
			}
		}
		if len(x.cons[i]) != len(consumers[o]) {
			t.Fatalf("operator %d (%s): %d consumer edges in the index, %d in the DAG", i, o.Kind, len(x.cons[i]), len(consumers[o]))
		}
		for _, p := range x.cons[i] {
			if x.dead[p] || !hasInput(x.ops[p], o) {
				t.Fatalf("operator %d (%s): consumer list names %d, which does not read it", i, o.Kind, p)
			}
		}
		if o.Kind != algebra.OpLit && !constructs(o.Kind) {
			if j, _ := r.find(o, x.inputs(i)); j != i || !r.slots[i].filed {
				t.Fatalf("operator %d (%s): the interning table finds %d (filed=%v)", i, o.Kind, j, r.slots[i].filed)
			}
		}
		if got := r.pr.propsAt(i); !reflect.DeepEqual(normProps(got), normProps(snap[o])) {
			t.Fatalf("operator %d (%s): maintained properties %+v, fresh snapshot %+v", i, o.Kind, got, snap[o])
		}
		for pos, c := range o.Schema() {
			if r.need.has(i, pos) != needed[o][c] {
				t.Fatalf("demand: operator %d (%s) column %q: %v, reference %v", i, o.Kind, c, r.need.has(i, pos), needed[o][c])
			}
		}
		if r.sense.matters[i] != matters[o] {
			t.Fatalf("operator %d (%s): maintained order sensitivity %v, reference %v", i, o.Kind, r.sense.matters[i], matters[o])
		}
	}
}

func hasInput(o, in *algebra.Op) bool {
	for _, c := range o.In {
		if c == in {
			return true
		}
	}
	return false
}

// normProps makes empty and nil column lists compare equal.
func normProps(p Props) Props {
	if len(p.Sorted) == 0 {
		p.Sorted = nil
	}
	if len(p.Dense) == 0 {
		p.Dense = nil
	}
	return p
}

// seedTB prefixes fatal messages with the failing seed.
type seedTB struct {
	testing.TB
	seed int64
}

func (s seedTB) Fatalf(format string, args ...any) {
	s.TB.Helper()
	s.TB.Fatalf("seed %d: %s", s.seed, fmt.Sprintf(format, args...))
}

func (s seedTB) Fatal(args ...any) {
	s.TB.Helper()
	s.TB.Fatalf("seed %d: %s", s.seed, fmt.Sprint(args...))
}

// CheckSeed is CheckAgainstReference over the random DAG of one seed,
// with the seed in every failure.
func CheckSeed(t testing.TB, seed int64, strict bool) (got, want *algebra.Op, splices int) {
	root := RandomPlan(seed)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("seed %d: panic %v\n%s", seed, r, algebra.TreeString(root))
		}
	}()
	return CheckAgainstReference(seedTB{t, seed}, root, strict)
}

// randomPlan grows a pool of operators over a few literals by applying
// random operators to random pool members, biased towards what the
// isolation pass looks for (ϱ under a projection that drops the
// numbering column, stacked).
func randomPlan(rng *rand.Rand) *algebra.Op {
	g := &planGen{rng: rng}
	for i, n := 0, 2+rng.Intn(3); i < n; i++ {
		g.pool = append(g.pool, g.literal())
	}
	for steps := 20 + rng.Intn(100); steps > 0; steps-- {
		if o := g.grow(); o != nil {
			g.pool = append(g.pool, o)
		}
	}
	// The root is the largest plan in the pool, preferring the result
	// schema the serializer expects.
	var root *algebra.Op
	size := 0
	for _, o := range g.pool {
		n := algebra.CountOps(o)
		if o.HasCol("iter") && o.HasCol("pos") && o.HasCol("item") {
			n *= 2
		}
		if n > size {
			root, size = o, n
		}
	}
	return root
}

type planGen struct {
	rng   *rand.Rand
	pool  []*algebra.Op
	fresh int
}

func (g *planGen) pick() *algebra.Op {
	// Recent operators are likelier: deep plans, not a bush over the
	// literals.
	n := len(g.pool)
	if g.rng.Intn(3) > 0 && n > 4 {
		return g.pool[n-1-g.rng.Intn(4)]
	}
	return g.pool[g.rng.Intn(n)]
}

func (g *planGen) col(o *algebra.Op) string {
	s := o.Schema()
	return s[g.rng.Intn(len(s))]
}

func (g *planGen) name(prefix string) string {
	g.fresh++
	return fmt.Sprintf("%s%d", prefix, g.fresh)
}

// literal is an iter|pos|item table (sometimes with an extra column)
// whose iter/pos columns are, at random, sorted, keyed, dense or none of
// those — the facts the order proofs start from.
func (g *planGen) literal() *algebra.Op {
	rows := 1 + g.rng.Intn(4)
	iter, pos, item := make(bat.IntVec, rows), make(bat.IntVec, rows), make(bat.IntVec, rows)
	for r := 0; r < rows; r++ {
		switch g.rng.Intn(3) {
		case 0:
			iter[r] = int64(r + 1) // dense
		case 1:
			iter[r] = 1 + int64(r/2) // sorted with ties
		default:
			iter[r] = int64(g.rng.Intn(3))
		}
		pos[r] = int64(g.rng.Intn(2) * (r + 1))
		if g.rng.Intn(2) == 0 {
			pos[r] = int64(r + 1)
		}
		item[r] = int64(g.rng.Intn(5))
	}
	cols := []any{"iter", iter, "pos", pos, "item", item}
	if g.rng.Intn(3) == 0 {
		cols = append(cols, "x", item)
	}
	return algebra.Lit(bat.MustTable(cols...))
}

// grow applies one random operator; nil when the draw does not fit the
// picked inputs (the caller just draws again).
func (g *planGen) grow() *algebra.Op {
	in := g.pick()
	var o *algebra.Op
	var err error
	switch g.rng.Intn(20) {
	case 0, 1, 2, 3:
		// A ϱ under a projection that forgets the numbering column: the
		// isolation pass's candidate shape.
		num := g.rowNum(in)
		if num == nil {
			return nil
		}
		g.pool = append(g.pool, num) // other consumers may still see it
		o, err = algebra.Project(num, in.Schema()...)
	case 4, 5:
		return g.numbering(in)
	case 6, 7:
		o, err = algebra.Project(in, g.projection(in)...)
	case 8:
		b := g.name("b")
		f, ferr := algebra.Fun(in, b, algebra.FunEq, g.col(in), g.col(in))
		if ferr != nil {
			return nil
		}
		o, err = algebra.Select(f, b)
	case 9:
		o, err = algebra.Fun(in, g.name("f"), algebra.FunAdd, g.col(in), g.col(in))
	case 10:
		o = algebra.Distinct(in)
	case 11:
		// Union with a same-schema sibling: the operator itself through
		// a different tower, or any pool member that fits.
		other := g.pick()
		if !sameCols(in.Schema(), other.Schema()) {
			other = in
		}
		o, err = algebra.Union(in, other)
	case 12, 13:
		r := g.renamed(g.pick())
		if r == nil {
			return nil
		}
		kl, kr := []string{g.col(in)}, []string{g.col(r)}
		switch g.rng.Intn(4) {
		case 0:
			o, err = algebra.Cross(in, r)
		case 1:
			o, err = algebra.SemiJoin(in, r, kl, kr)
		case 2:
			o, err = algebra.Diff(in, r, kl, kr)
		default:
			o, err = algebra.Join(in, r, kl, kr)
		}
	case 14:
		aggs := []algebra.AggKind{algebra.AggCount, algebra.AggSum, algebra.AggMax, algebra.AggStrJoin}
		part := ""
		if g.rng.Intn(2) == 0 {
			part = g.col(in)
		}
		o, err = algebra.Aggr(in, g.name("a"), aggs[g.rng.Intn(len(aggs))], g.col(in), part)
	case 15:
		o, err = algebra.Step(in, algebra.Axis(g.rng.Intn(4)), algebra.KindTest{})
	case 16:
		o, err = algebra.Elem(g.pick(), in)
	case 17:
		if g.rng.Intn(2) == 0 {
			o, err = algebra.Text(in)
		} else {
			o, err = algebra.AttrC(in, g.pick())
		}
	case 18:
		switch g.rng.Intn(3) {
		case 0:
			o, err = algebra.DocOp(in)
		case 1:
			o, err = algebra.Roots(in)
		default:
			o, err = algebra.CollOp(in)
		}
	default:
		// Restore the result schema from whatever columns there are, so
		// constructors and the root have something to consume.
		o, err = algebra.Project(in, "iter:"+g.col(in), "pos:"+g.col(in), "item:"+g.col(in))
	}
	if err != nil {
		return nil
	}
	return o
}

// numbering stacks a ϱ or a mark on in.
func (g *planGen) numbering(in *algebra.Op) *algebra.Op {
	if g.rng.Intn(3) > 0 {
		return g.rowNum(in)
	}
	o, err := algebra.RowID(in, g.name("m"))
	if err != nil {
		return nil
	}
	return o
}

// rowNum stacks a ϱ on in: random order keys, maybe descending, maybe
// partitioned.
func (g *planGen) rowNum(in *algebra.Op) *algebra.Op {
	order := make([]algebra.OrderSpec, 1+g.rng.Intn(2))
	for i := range order {
		order[i] = algebra.OrderSpec{Col: g.col(in), Desc: g.rng.Intn(6) == 0}
	}
	part := ""
	if g.rng.Intn(2) == 0 {
		part = g.col(in)
	}
	o, err := algebra.RowNum(in, g.name("n"), order, part)
	if err != nil {
		return nil
	}
	return o
}

// projection keeps a random non-empty subset of in's columns, renaming
// some.
func (g *planGen) projection(in *algebra.Op) []string {
	var specs []string
	for _, c := range in.Schema() {
		switch g.rng.Intn(4) {
		case 0: // dropped
		case 1:
			specs = append(specs, g.name("r")+":"+c)
		default:
			specs = append(specs, c)
		}
	}
	if len(specs) == 0 {
		specs = append(specs, g.col(in))
	}
	return specs
}

// renamed gives every column of in a fresh name, as the right input of
// a join or product needs.
func (g *planGen) renamed(in *algebra.Op) *algebra.Op {
	specs := make([]string, len(in.Schema()))
	for i, c := range in.Schema() {
		specs[i] = g.name("j") + ":" + c
	}
	o, err := algebra.Project(in, specs...)
	if err != nil {
		return nil
	}
	return o
}

// TestSpliceTowerResettles pins the order-sensitivity settle between the
// splices of one tower. In the random DAG of seed -167 a projection
// reads a tower of four ϱ; once the top one is spliced, the projection's
// own properties change, and with them a verdict above it that reads
// them: the projection's order starts to matter, so the round driver's
// restart scan splices no further. A tower splice that judged the next ϱ
// on the sensitivity from before the first splice removes two more.
func TestSpliceTowerResettles(t *testing.T) {
	got, want, _ := CheckSeed(t, -167, true)
	if gs, ws := algebra.TreeString(got), algebra.TreeString(want); gs != ws {
		t.Fatalf("pipeline plan:\n%s\nround driver:\n%s", gs, ws)
	}
}
