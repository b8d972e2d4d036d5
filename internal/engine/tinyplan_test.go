package engine_test

// What an operator costs apart from its rows. Loop-lifted plans are long
// chains of operators over the loop relations, most of them one row
// wide; a kernel's fixed price — table plumbing, the clock, building its
// output schema — is paid by every one of them. BenchmarkTinyPlan times
// two such plans and TestOperatorAllocBudget holds their allocations
// down: a chain of one-row π and × alone, and the service's point lookup
// (39 operators, all but a handful over one row once its @id join has
// picked the person).

import (
	"context"
	"fmt"
	"strings"
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

// tinyChainLinks is how many (literal, ×, π) links tinyChain strings
// onto its one-row base literal: 46 operators in all.
const tinyChainLinks = 15

// tinyChain is a plan of one-row operators only: each link crosses the
// running (iter, item) relation with a one-row literal and projects the
// literal's column back into item, as loop-lifting does when a constant
// meets the outermost loop. It lowers without the optimizer, which would
// fold it away.
func tinyChain(tb testing.TB) *physical.Plan {
	x := algebra.Lit(bat.MustTable("iter", bat.IntVec{1}, "item", bat.IntVec{0}))
	for k := 1; k <= tinyChainLinks; k++ {
		c := algebra.Lit(bat.MustTable("c", bat.IntVec{int64(k)}))
		cross, err := algebra.Cross(x, c)
		if err != nil {
			tb.Fatal(err)
		}
		if x, err = algebra.Project(cross, "iter", "item:c"); err != nil {
			tb.Fatal(err)
		}
	}
	return physical.Lower(x)
}

// pointLookup is the benchmark's service_mixed point request over an
// XMark document at SF 0.01, compiled and optimized as the service
// prepares it, with the engine that runs it and the reply it must give.
func pointLookup(tb testing.TB) (*engine.Engine, *physical.Plan, string) {
	e := engine.New(xenc.NewStore())
	if _, err := e.Store.LoadDocumentString("xmark.xml", xmark.GenerateString(0.01)); err != nil {
		tb.Fatal(err)
	}
	src := `for $b in /site/people/person where $b/@id = "person42" return $b/name/text()`
	plan, _, err := core.CompileQuery(src, xqcore.Options{ContextDoc: "xmark.xml"})
	if err != nil {
		tb.Fatal(err)
	}
	if plan, err = opt.Optimize(plan); err != nil {
		tb.Fatal(err)
	}
	p := physical.Lower(plan)
	want, err := evalReply(e, p)
	if err != nil {
		tb.Fatal(err)
	}
	if want == "" {
		tb.Fatal("point lookup found no person")
	}
	return e, p, want
}

// evalReply evaluates a plan as the service does, on a scratch view of
// the store, and serializes the result.
func evalReply(e *engine.Engine, p *physical.Plan) (string, error) {
	eng := e.ForStore(e.Store.Scratch(), e.Collection)
	res, _, err := eng.EvalPlan(context.Background(), p, false)
	if err != nil {
		return "", err
	}
	return serialize.Result(eng.Store, res)
}

// BenchmarkTinyPlan times the per-operator cost on the two plans:
// ns/op and allocs/op per evaluation, with the operator count and the
// allocations per operator reported beside them.
func BenchmarkTinyPlan(b *testing.B) {
	b.Run("chain", func(b *testing.B) {
		e := engine.New(xenc.NewStore())
		p := tinyChain(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := e.EvalPlan(context.Background(), p, false); err != nil {
				b.Fatal(err)
			}
		}
		reportPerOperator(b, p)
	})
	b.Run("point-lookup", func(b *testing.B) {
		e, p, want := pointLookup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, err := evalReply(e, p)
			if err != nil {
				b.Fatal(err)
			}
			if got != want {
				b.Fatalf("reply %q, want %q", got, want)
			}
		}
		reportPerOperator(b, p)
	})
}

func reportPerOperator(b *testing.B, p *physical.Plan) {
	b.StopTimer()
	n := float64(len(p.Nodes))
	b.ReportMetric(n, "ops/plan")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/operator")
}

// TestOperatorAllocBudget keeps the fixed price of an operator down. The
// ceilings are 1.25× what the executor allocates: 62 allocations over
// the 46 operators of the one-row chain (a table and its column slice
// per π and ×, the result slots per evaluation; it was 395 while kernels
// re-boxed their inputs with Slice + AddCol, built π from spec strings
// and allocated every view), and 162 per evaluation of the point lookup
// (was 417).
func TestOperatorAllocBudget(t *testing.T) {
	t.Run("chain", func(t *testing.T) {
		e := engine.New(xenc.NewStore())
		p := tinyChain(t)
		got := testing.AllocsPerRun(20, func() {
			if _, _, err := e.EvalPlan(context.Background(), p, false); err != nil {
				t.Fatal(err)
			}
		})
		const ceiling = 77
		perOp := got / float64(len(p.Nodes))
		if int(got) > ceiling {
			t.Errorf("one-row chain allocates %d times per evaluation, %.2f per operator; ceiling %d", int(got), perOp, ceiling)
		}
		t.Logf("%d allocations per evaluation, %.2f per operator over %d operators (ceiling %d)", int(got), perOp, len(p.Nodes), ceiling)
	})
	t.Run("point-lookup", func(t *testing.T) {
		e, p, _ := pointLookup(t)
		var err error
		got := testing.AllocsPerRun(20, func() {
			eng := e.ForStore(e.Store.Scratch(), e.Collection)
			_, _, err = eng.EvalPlan(context.Background(), p, false)
		})
		if err != nil {
			t.Fatal(err)
		}
		const ceiling = 202
		if int(got) > ceiling {
			t.Errorf("point lookup allocates %d times per EvalPlan (%d operators), ceiling %d", int(got), len(p.Nodes), ceiling)
		}
		t.Logf("%d allocations per EvalPlan over %d operators (ceiling %d)", int(got), len(p.Nodes), ceiling)
	})
}

// TestKernelsLeaveInputsAlone: one node feeds four consumers that each
// extend it by a column — two ⊛, a mark and a ϱ. Every extension is a
// new table over the shared vectors; none may add its column to the
// input, or the next consumer would see it (or fail on a duplicate).
// The plan runs in Check mode, which asserts each output's schema.
func TestKernelsLeaveInputsAlone(t *testing.T) {
	must := func(o *algebra.Op, err error) *algebra.Op {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	in := algebra.Lit(bat.MustTable("iter", bat.IntVec{1, 2, 3}, "item", bat.IntVec{30, 10, 20}))
	sum := must(algebra.Fun(in, "a", algebra.FunAdd, "item", "item"))
	prod := must(algebra.Fun(in, "b", algebra.FunMul, "item", "item"))
	mark := must(algebra.RowID(in, "c"))
	rank := must(algebra.RowNum(in, "d", []algebra.OrderSpec{{Col: "item"}}, ""))
	root := sum
	for i, ext := range []*algebra.Op{prod, mark, rank} {
		col := ext.Schema()[2]
		iter := fmt.Sprintf("iter%d", i)
		side := must(algebra.Project(ext, iter+":iter", col))
		root = must(algebra.Join(root, side, []string{"iter"}, []string{iter}))
	}
	e := engine.NewWithConfig(xenc.NewStore(), engine.Config{Check: true})
	res, tr, err := e.EvalPlan(context.Background(), physical.Lower(root), true)
	if err != nil {
		t.Fatal(err)
	}
	for op, want := range map[*algebra.Op]string{
		in: "iter|item", sum: "iter|item|a", prod: "iter|item|b", mark: "iter|item|c", rank: "iter|item|d",
	} {
		if got := strings.Join(tr.Tables[op].Cols(), "|"); got != want {
			t.Errorf("%s output has columns %s, want %s", op.Kind, got, want)
		}
	}
	want := "iter|item|a|iter0|b|iter1|c|iter2|d\n" +
		"1|30|60|1|900|1|1|1|3\n" +
		"2|10|20|2|100|2|2|2|1\n" +
		"3|20|40|3|400|3|3|3|2\n"
	if got := res.String(); got != want {
		t.Errorf("result\n%swant\n%s", got, want)
	}
}
