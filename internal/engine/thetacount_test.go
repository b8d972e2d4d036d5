package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/xenc"
)

// thetaCountPlan builds the count-only shape
//
//	count n:()/by ( δ ( π by:li,of:ri ( σ_c ( ⊛fun c:(x,y) ( L × R )))))
//
// over two literal tables li|lk|lkeep and ri|rk|rkeep; filtered and swap
// as in thetaPlan.
func thetaCountPlan(tb testing.TB, l, r *bat.Table, fun algebra.FunKind, filtered, swap bool) *algebra.Op {
	tb.Helper()
	sel := thetaPlan(tb, l, r, fun, filtered, swap)
	dist := algebra.Distinct(must(algebra.Project(sel, "by:li", "of:ri")))
	return must(algebra.Aggr(dist, "n", algebra.AggCount, "", "by"))
}

// randIterCol draws an iteration column: a key (1, 2, 3, …), ascending
// with repeats (an iteration holding several values), or in no order.
func randIterCol(rng *rand.Rand, n int) (col bat.IntVec, shape string) {
	col = make(bat.IntVec, n)
	switch p := rng.Intn(20); {
	case p < 9:
		shape = "key"
		for i := range col {
			col[i] = int64(i) + 1
		}
	case p < 17:
		shape = "repeats"
		v := int64(1)
		for i := range col {
			if i > 0 && rng.Intn(3) > 0 {
				v += int64(rng.Intn(3))
			}
			col[i] = v
		}
	default:
		shape = "unordered"
		for i := range col {
			col[i] = int64(rng.Intn(5)) + 1
		}
	}
	return col, shape
}

// randCountSide is one × input of the count-only shape: an iteration
// column, a key column of the given shape ("node" on top of randKeyCol's),
// and a filter column.
func randCountSide(rng *rand.Rand, prefix, shape string, n int) (t *bat.Table, iterShape string) {
	iter, iterShape := randIterCol(rng, n)
	var key bat.Vec
	if shape == "node" {
		nodes := make(bat.NodeVec, n)
		for i := range nodes {
			nodes[i] = bat.NodeRef{Frag: 1, Pre: int32(rng.Intn(4))}
		}
		key = nodes
	} else {
		key = randKeyCol(rng, shape, n)
	}
	keep := make(bat.BoolVec, n)
	for i := range keep {
		keep[i] = rng.Intn(4) != 0
	}
	return bat.MustTable(prefix+"i", iter, prefix+"k", key, prefix+"keep", keep), iterShape
}

// TestThetaCountMatchesMembers is the property test of the count-only
// node: over random key columns of every shape and iteration columns with
// and without repeats and order, for every inequality and operand
// order, the node's (by, n) table — rows, row order, column types —
// equals what the six operators it covers produce one by one (the
// forced-demotion engine's fallback) and what the reference evaluator
// computes (refEval), or all three fail with the same text. A node that
// declines must give the same reason whatever the engine's
// configuration.
func TestThetaCountMatchesMembers(t *testing.T) {
	shapes := []string{"int", "float", "str", "untyped", "words", "numitems", "stritems", "nan", "junk", "bool", "mixed", "numuntyped", "node"}
	funs := []algebra.FunKind{algebra.FunLt, algebra.FunLe, algebra.FunGt, algebra.FunGe}
	type labelled struct {
		label string
		e     *Engine
	}
	demoted := NewWithConfig(xenc.NewStore(), Config{Check: true})
	demoted.ForceThetaDemotion()
	engines := []labelled{{"band", NewWithConfig(xenc.NewStore(), Config{Check: true})}, {"demoted", demoted}}

	rng := rand.New(rand.NewSource(20))
	kernelRuns, reduced, demotions := 0, 0, map[string]int{}
	const trials = 1500
	for trial := 0; trial < trials; trial++ {
		ls, rs := shapes[rng.Intn(len(shapes))], shapes[rng.Intn(len(shapes))]
		l, lIter := randCountSide(rng, "l", ls, rng.Intn(14))
		r, rIter := randCountSide(rng, "r", rs, rng.Intn(14))
		fun := funs[rng.Intn(len(funs))]
		plan := thetaCountPlan(t, l, r, fun, rng.Intn(2) == 0, rng.Intn(2) == 0)
		name := fmt.Sprintf("trial %d (%s/%s %s %s/%s)", trial, ls, lIter, fun, rs, rIter)

		want, wantErr := refEval(plan)
		ran := ""
		for _, le := range engines {
			got, tr, err := le.e.EvalTrace(context.Background(), plan)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%s %s: error %v, reference %v", name, le.label, err, wantErr)
			}
			if le.label != "demoted" {
				// One node, keyed by the count, runs the join.
				how := tr.Stats[plan].Kernel
				if i := strings.Index(how, "(demoted:"); i >= 0 {
					how = how[i:]
				} else if !strings.HasPrefix(how, "merge-thetacount[") {
					t.Fatalf("%s %s: the theta join ran %q, neither the count-only kernel nor a demotion", name, le.label, how)
				}
				if ran == "" {
					ran = how
				} else if how != ran {
					t.Fatalf("%s: %s ran %q, the first engine %q", name, le.label, how, ran)
				}
			}
			if err != nil {
				continue
			}
			if err := sameTable(got, want); err != nil {
				t.Fatalf("%s %s: %v\n got:\n%s\n want:\n%s", name, le.label, err, got, want)
			}
		}
		if strings.HasPrefix(ran, "merge-thetacount[") {
			kernelRuns++
			if lIter == "repeats" || rIter == "repeats" {
				reduced++
			}
		} else {
			demotions[ran]++
		}
	}
	if kernelRuns < 200 || reduced < 100 {
		t.Errorf("count-only kernel ran in only %d of %d trials, %d of them over repeated iteration values", kernelRuns, trials, reduced)
	}
	for _, reason := range []string{"iter-order", "node", "bool", "mixed", "nan", "uncastable"} {
		if demotions["(demoted:"+reason+")"] == 0 {
			t.Errorf("no trial demoted for %q (saw %v)", reason, demotions)
		}
	}
}
