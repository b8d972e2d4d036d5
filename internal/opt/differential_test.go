package opt

// Differential tests of the index-backed pipeline against the reference
// formulations in reference_test.go. CheckAgainstReference is the
// per-plan check; this file drives it over seeded random DAGs, and
// differential_corpus_test.go (package opt_test, which may import the
// compiler) over XMark q01–q20 and the Table 2 dialect corpus.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// CheckAgainstReference runs root through the pipeline twice — once as
// shipped, with every isolation pass shadowed by the reference on a
// clone of its input, and once with the reference isolation pass in the
// driver — and asserts:
//
//   - on every DAG version an analysis sees, the bitset demand analysis
//     and the pulled order sensitivity equal the map-based references;
//   - the two isolation passes splice the same projections in the same
//     order and leave the same plan;
//   - after every splice, the incrementally maintained index, property
//     memos and order sensitivity equal what a fresh walk, a fresh
//     NewPropertyEngine().Snapshot and a fresh reference analysis derive
//     from the spliced DAG;
//   - both runs end with the same plan and the same TraceString().
//
// It returns the number of splices checked.
func CheckAgainstReference(t testing.TB, root *algebra.Op) int {
	t.Helper()
	before := algebra.TreeString(root)
	splices := 0

	shadowed := func(idx *planIndex, pr *props, _ func(int32, *orderSense)) int {
		assertTopoIndex(t, idx)
		assertDemand(t, idx)

		// The reference runs first, on a clone: the shipped pass is about
		// to splice idx's operators in place.
		ref := clonePlan(idx).root()
		pos := make(map[*algebra.Op]int32)
		for i, o := range algebra.Topo(ref) {
			pos[o] = int32(i)
		}
		var want []int32
		wantN := refIsolate(ref, NewPropertyEngine(), func(pi *algebra.Op) { want = append(want, pos[pi]) })

		var got []int32
		gotN := isolate(idx, pr, func(pi int32, sense *orderSense) {
			got = append(got, pi)
			assertSpliceState(t, idx, pr, sense)
		})
		if gotN == 0 {
			// No splice ran the per-splice check: still compare the
			// initial derivation (isolate built the consumer lists).
			assertSpliceState(t, idx, pr, newOrderSense(idx, pr))
		}
		if gotN != wantN || !reflect.DeepEqual(got, want) {
			t.Fatalf("isolation spliced projections %v (%d rewrites), the reference %v (%d)", got, gotN, want, wantN)
		}
		if g, w := algebra.TreeString(idx.root()), algebra.TreeString(ref); g != w {
			t.Fatalf("isolation left a different plan than the reference:\n%s\nreference:\n%s", g, w)
		}
		if live := algebra.CountOps(idx.root()); idx.live() != live {
			t.Fatalf("index counts %d live operators after %d splices, the DAG has %d", idx.live(), gotN, live)
		}
		splices += gotN
		return gotN
	}
	reference := func(idx *planIndex, _ *props, _ func(int32, *orderSense)) int {
		n := refIsolate(idx.root(), NewPropertyEngine(), nil)
		*idx = *newPlanIndex(idx.root(), 0) // the driver reads live() off it
		return n
	}

	got, gotErr := runPipeline(root, maxRounds, shadowed, true)
	want, wantErr := runPipeline(root, maxRounds, reference, true)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("pipeline error %v, with the reference isolation %v", gotErr, wantErr)
	}
	if gotErr == nil {
		if g, w := got.TraceString(), want.TraceString(); g != w {
			t.Fatalf("trace differs from the reference run:\n%s\nreference:\n%s", g, w)
		}
		if g, w := algebra.TreeString(got.Plan), algebra.TreeString(want.Plan); g != w {
			t.Fatalf("plan differs from the reference run:\n%s\nreference:\n%s", g, w)
		}
	}
	if after := algebra.TreeString(root); after != before {
		t.Fatal("pipeline mutated its input plan")
	}
	return splices
}

// assertDemand compares the bitset demand analysis of an indexed plan
// with the reference's map of maps, "nobody registered a demand" (nil)
// included.
func assertDemand(t testing.TB, idx *planIndex) {
	t.Helper()
	got, want := demandOf(idx), refDemandMap(idx.root())
	for i, o := range idx.ops {
		i := int32(i)
		if got.reached[i] != (want[o] != nil) {
			t.Fatalf("demand: operator %d (%s) reached=%v, reference map present=%v", i, o.Kind, got.reached[i], want[o] != nil)
		}
		for _, c := range o.Schema() {
			if got.needs(i, c) != want[o][c] {
				t.Fatalf("demand: operator %d (%s) column %q: %v, reference %v", i, o.Kind, c, got.needs(i, c), want[o][c])
			}
		}
	}
}

// assertSpliceState checks everything the isolation pass maintains
// incrementally against a from-scratch derivation on the DAG as it is
// now.
func assertSpliceState(t testing.TB, idx *planIndex, pr *props, sense *orderSense) {
	t.Helper()
	root := idx.root()
	fresh := NewPropertyEngine()
	snap := fresh.Snapshot(root)
	matters := refOrderMatters(root, fresh.p)
	consumers := algebra.Consumers(root)
	if len(snap) != idx.live() {
		t.Fatalf("index has %d live operators, the DAG %d", idx.live(), len(snap))
	}
	for i, o := range idx.ops {
		i := int32(i)
		if _, reachable := snap[o]; reachable == idx.dead[i] {
			t.Fatalf("operator %d (%s): dead=%v but reachable=%v", i, o.Kind, idx.dead[i], reachable)
		}
		if idx.dead[i] {
			continue
		}
		for k, c := range idx.inputs(i) {
			if idx.ops[c] != o.In[k] {
				t.Fatalf("operator %d (%s): index input %d is stale", i, o.Kind, k)
			}
		}
		if len(idx.cons[i]) != len(consumers[o]) {
			t.Fatalf("operator %d (%s): %d consumer edges in the index, %d in the DAG", i, o.Kind, len(idx.cons[i]), len(consumers[o]))
		}
		for _, p := range idx.cons[i] {
			if idx.dead[p] || !hasInput(idx.ops[p], o) {
				t.Fatalf("operator %d (%s): consumer list names %d, which does not read it", i, o.Kind, p)
			}
		}
		if got := pr.propsAt(i); !reflect.DeepEqual(normProps(got), normProps(snap[o])) {
			t.Fatalf("operator %d (%s): maintained properties %+v, fresh snapshot %+v", i, o.Kind, got, snap[o])
		}
		if sense.matters[i] != matters[o] {
			t.Fatalf("operator %d (%s): maintained order sensitivity %v, reference %v", i, o.Kind, sense.matters[i], matters[o])
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

// TestRandomPlansMatchReference runs the differential over seeded random
// DAGs: shapes the compiler never emits (numbering towers under shared
// projections, unions of towers, constructors over ties) but the passes
// must still agree on.
func TestRandomPlansMatchReference(t *testing.T) {
	splices, plans := 0, 300
	if testing.Short() {
		plans = 60
	}
	for seed := 0; seed < plans; seed++ {
		root := randomPlan(rand.New(rand.NewSource(int64(seed))))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("seed %d: panic %v\n%s", seed, r, algebra.TreeString(root))
				}
			}()
			splices += CheckAgainstReference(seedTB{t, seed}, root)
		}()
	}
	// The generator must actually exercise the isolation pass.
	if splices < plans {
		t.Errorf("only %d splices over %d random plans: the generator no longer builds spliceable towers", splices, plans)
	}
}

// seedTB prefixes fatal messages with the failing seed.
type seedTB struct {
	testing.TB
	seed int
}

func (s seedTB) Fatalf(format string, args ...any) {
	s.TB.Helper()
	s.TB.Fatalf("seed %d: %s", s.seed, fmt.Sprintf(format, args...))
}

func (s seedTB) Fatal(args ...any) {
	s.TB.Helper()
	s.TB.Fatalf("seed %d: %s", s.seed, fmt.Sprint(args...))
}

// randomPlan grows a pool of operators over a few literals by applying
// random operators to random pool members, biased towards what the
// isolation pass looks for (ϱ/mark under a projection that drops the
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
		// A numbering operator under a projection that forgets the
		// numbering column: the isolation pass's candidate shape.
		num := g.numbering(in)
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

// numbering stacks a ϱ (random order keys, maybe descending, maybe
// partitioned) or a mark on in.
func (g *planGen) numbering(in *algebra.Op) *algebra.Op {
	var o *algebra.Op
	var err error
	if g.rng.Intn(3) == 0 {
		o, err = algebra.RowID(in, g.name("m"))
	} else {
		order := make([]algebra.OrderSpec, 1+g.rng.Intn(2))
		for i := range order {
			order[i] = algebra.OrderSpec{Col: g.col(in), Desc: g.rng.Intn(6) == 0}
		}
		part := ""
		if g.rng.Intn(2) == 0 {
			part = g.col(in)
		}
		o, err = algebra.RowNum(in, g.name("n"), order, part)
	}
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
