package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/xenc"
)

// thetaPlan builds σ_c(⊛fun c:(x,y)(L × R)) over two literal tables
// lk|lv|lkeep and rk|rv|rkeep. With filtered set, each × input is first
// run through σ on its keep column, so the kernel sees views with a
// selection vector instead of identity views. swap feeds ⊛ the right
// column first.
func thetaPlan(tb testing.TB, l, r *bat.Table, fun algebra.FunKind, filtered, swap bool) *algebra.Op {
	tb.Helper()
	lo, ro := algebra.Lit(l), algebra.Lit(r)
	if filtered {
		lo, ro = must(algebra.Select(lo, "lkeep")), must(algebra.Select(ro, "rkeep"))
	}
	x, y := "lk", "rk"
	if swap {
		x, y = y, x
	}
	fn := must(algebra.Fun(must(algebra.Cross(lo, ro)), "c", fun, x, y))
	return must(algebra.Select(fn, "c"))
}

// randKeyCol draws a key column of n values from a small domain (ties
// are the point) in one of the shapes the kernel distinguishes.
func randKeyCol(rng *rand.Rand, shape string, n int) bat.Vec {
	words := []string{"", "apple", "fig", "kiwi", "pear", "10", "9", "2.5"}
	switch shape {
	case "int":
		v := make(bat.IntVec, n)
		for i := range v {
			v[i] = int64(rng.Intn(7)) - 3
		}
		return v
	case "float":
		v := make(bat.FloatVec, n)
		for i := range v {
			v[i] = float64(rng.Intn(9))/2 - 1
		}
		return v
	case "str":
		v := make(bat.StrVec, n)
		for i := range v {
			v[i] = words[rng.Intn(len(words))]
		}
		return v
	}
	v := make(bat.ItemVec, n)
	for i := range v {
		switch shape {
		case "untyped": // castable untyped atomics, as attribute values are
			v[i] = bat.Untyped(fmt.Sprint(float64(rng.Intn(9)) / 2))
		case "words": // untyped atomics that only order as strings
			v[i] = bat.Untyped(words[rng.Intn(len(words))])
		case "numuntyped": // ints beside castable untyped atomics: a number for one pair, a string for another
			if rng.Intn(2) == 0 {
				v[i] = bat.Int(int64(rng.Intn(5)))
			} else {
				v[i] = bat.Untyped(fmt.Sprint(rng.Intn(5)))
			}
		case "numitems": // a polymorphic column of ints and doubles
			if rng.Intn(2) == 0 {
				v[i] = bat.Int(int64(rng.Intn(5)))
			} else {
				v[i] = bat.Float(float64(rng.Intn(9)) / 2)
			}
		case "stritems":
			v[i] = bat.Str(words[rng.Intn(len(words))])
		case "nan": // mostly numbers, now and then a NaN
			v[i] = bat.Float(float64(rng.Intn(5)))
			if rng.Intn(6) == 0 {
				v[i] = bat.Float(math.NaN())
			}
		case "junk": // mostly castable, now and then not
			v[i] = bat.Untyped(fmt.Sprint(rng.Intn(5)))
			if rng.Intn(6) == 0 {
				v[i] = bat.Untyped("n/a")
			}
		case "bool":
			v[i] = bat.Bool(rng.Intn(2) == 0)
		case "mixed":
			if rng.Intn(2) == 0 {
				v[i] = bat.Int(int64(rng.Intn(5)))
			} else {
				v[i] = bat.Str(words[rng.Intn(len(words))])
			}
		}
	}
	return v
}

func randSide(rng *rand.Rand, prefix, shape string, n int) *bat.Table {
	keep := make(bat.BoolVec, n)
	for i := range keep {
		keep[i] = rng.Intn(4) != 0
	}
	// The dense column leads, so the literal's inferred sort order never
	// hinges on how a NaN key compares.
	return bat.MustTable(prefix+"v", bat.Ramp(100, n), prefix+"k", randKeyCol(rng, shape, n), prefix+"keep", keep)
}

func sameTable(a, b *bat.Table) error {
	if a.Rows() != b.Rows() || strings.Join(a.Cols(), "|") != strings.Join(b.Cols(), "|") {
		return fmt.Errorf("shape %d×%v vs %d×%v", a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	for _, name := range a.Cols() {
		av, bv := a.MustCol(name), b.MustCol(name)
		if av.Type() != bv.Type() {
			return fmt.Errorf("column %s: vector type %s vs %s", name, av.Type(), bv.Type())
		}
		for i := 0; i < a.Rows(); i++ {
			x, y := av.ItemAt(i), bv.ItemAt(i)
			if x.Kind != y.Kind || x.StringValue() != y.StringValue() {
				return fmt.Errorf("column %s row %d: %s %q vs %s %q", name, i, x.Kind, x.StringValue(), y.Kind, y.StringValue())
			}
		}
	}
	return nil
}

// TestThetaKernelMatchesCrossFilter is the table-level property test:
// over random key columns of every shape, with ties, the theta-join
// node's output — rows, row order, column types — and its error text
// equal the reference evaluator's evalCross + bat.Compare + σ (refEval),
// for every operator and operand order, over identity and selected
// views, whether the band kernel or the node's fallback ran. Half the
// trials read the node through a π over some of its columns: the node
// must then have built exactly those (its Demand), and the projected
// result must still equal the reference.
func TestThetaKernelMatchesCrossFilter(t *testing.T) {
	shapes := []string{"int", "float", "str", "untyped", "words", "numitems", "stritems", "nan", "junk", "bool", "mixed", "numuntyped"}
	funs := []algebra.FunKind{algebra.FunLt, algebra.FunLe, algebra.FunGt, algebra.FunGe}
	demoted := NewWithConfig(xenc.NewStore(), Config{Check: true})
	demoted.ForceThetaDemotion()
	engines := map[string]*Engine{"band": NewWithConfig(xenc.NewStore(), Config{Check: true}), "demoted": demoted}

	rng := rand.New(rand.NewSource(12))
	projRng := rand.New(rand.NewSource(13)) // its own stream: the trials above stay the ones PR 12 pinned
	kernelRuns, narrowed, demotions := 0, 0, map[string]int{}
	for trial := 0; trial < 1200; trial++ {
		ls, rs := shapes[rng.Intn(len(shapes))], shapes[rng.Intn(len(shapes))]
		l := randSide(rng, "l", ls, rng.Intn(14))
		r := randSide(rng, "r", rs, rng.Intn(14))
		fun := funs[rng.Intn(len(funs))]
		sel := thetaPlan(t, l, r, fun, rng.Intn(2) == 0, rng.Intn(2) == 0)
		name := fmt.Sprintf("trial %d (%s %s %s)", trial, ls, fun, rs)

		plan, demand := sel, sel.Schema()
		if projRng.Intn(2) == 0 {
			demand = nil
			for _, c := range sel.Schema() {
				if projRng.Intn(3) == 0 {
					demand = append(demand, c)
				}
			}
			if len(demand) == 0 {
				demand = []string{"lv"}
			}
			plan = must(algebra.Project(sel, demand...))
		}

		want, wantErr := refEval(plan)
		for label, e := range engines {
			got, tr, err := e.EvalTrace(context.Background(), plan)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%s %s: error %v, reference %v", name, label, err, wantErr)
			}
			// One node, keyed by σ, runs the join — band kernel or not.
			st := tr.Stats[sel]
			if err == nil {
				if got := tr.Tables[sel].Cols(); strings.Join(got, "|") != strings.Join(demand, "|") {
					t.Fatalf("%s %s: theta join (%s) built %v, consumers read %v", name, label, st.Kernel, got, demand)
				}
			}
			if label == "band" {
				if strings.HasPrefix(st.Kernel, "merge-thetajoin[") {
					kernelRuns++
					if len(demand) < len(sel.Schema()) {
						narrowed++
					}
				} else if i := strings.Index(st.Kernel, "(demoted:"); i >= 0 {
					demotions[st.Kernel[i:]]++
				} else {
					t.Fatalf("%s: the theta join ran %q, neither the band kernel nor a demotion", name, st.Kernel)
				}
			}
			if err != nil {
				continue
			}
			if err := sameTable(got, want); err != nil {
				t.Fatalf("%s %s: %v\n got:\n%s\n want:\n%s", name, label, err, got, want)
			}
		}
	}
	if kernelRuns < 200 || narrowed < 50 {
		t.Errorf("band kernel ran in only %d of 1200 trials, %d of them with a narrowed demand", kernelRuns, narrowed)
	}
	for _, reason := range []string{"nan", "uncastable", "bool", "mixed"} {
		if demotions["(demoted:"+reason+")"] == 0 {
			t.Errorf("no trial demoted for %q (saw %v)", reason, demotions)
		}
	}
}

// TestThetaWideBand drives the rank-scan branch of thetaEmit (bands wide
// enough that sorting them back costs more than one pass over the inner
// side) and the all-rows and no-rows bands, against the reference product.
func TestThetaWideBand(t *testing.T) {
	const n = 300
	lk, rk := make(bat.IntVec, n), make(bat.IntVec, n)
	for i := range lk {
		lk[i] = int64(i*7919) % n
		rk[i] = int64(i*104729) % n
	}
	keep := make(bat.BoolVec, n)
	for i := range keep {
		keep[i] = i%5 != 0
	}
	l := bat.MustTable("lk", lk, "lv", bat.Ramp(0, n), "lkeep", keep)
	r := bat.MustTable("rk", rk, "rv", bat.Ramp(0, n), "rkeep", keep)
	e := NewWithConfig(xenc.NewStore(), Config{Check: true})
	for _, fun := range []algebra.FunKind{algebra.FunLt, algebra.FunGe} {
		for _, filtered := range []bool{false, true} {
			plan := thetaPlan(t, l, r, fun, filtered, false)
			want, err := refEval(plan)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Eval(plan)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameTable(got, want); err != nil {
				t.Errorf("%s filtered=%v: %v", fun, filtered, err)
			}
		}
	}
}

// TestCrossRowLimit: a product whose row count does not fit the
// executor's int32 row addressing fails with a plain error before any
// index vector is sized.
func TestCrossRowLimit(t *testing.T) {
	const n = 1 << 16 // n·n = 2³² rows
	l := algebra.Lit(bat.MustTable("a", make(bat.BoolVec, n)))
	r := algebra.Lit(bat.MustTable("b", make(bat.BoolVec, n)))
	plan := must(algebra.Cross(l, r))
	want := fmt.Sprintf("cross: cross product of %d × %d rows exceeds the executor's row limit", n, n)
	_, err := New(xenc.NewStore()).Eval(plan)
	if err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
}

// BenchmarkThetaJoin compares the band kernel with the ×, ⊛, σ kernels
// it replaces, on the same plan (one engine is forced to demote: the
// node's fallback runs them). With
// lk uniform on [0,1) and rk uniform on [0,2s), `lk < rk` qualifies the
// share s of all pairs.
func BenchmarkThetaJoin(b *testing.B) {
	for _, size := range [][2]int{{1000, 1000}, {4000, 4000}, {16000, 4000}} {
		for _, pct := range []int{3, 50} {
			nl, nr := size[0], size[1]
			rng := rand.New(rand.NewSource(1))
			lk, rk := make(bat.FloatVec, nl), make(bat.FloatVec, nr)
			for i := range lk {
				lk[i] = rng.Float64()
			}
			for i := range rk {
				rk[i] = rng.Float64() * 2 * float64(pct) / 100
			}
			l := bat.MustTable("lk", lk, "lv", bat.Ramp(0, nl))
			r := bat.MustTable("rk", rk, "rv", bat.Ramp(0, nr))
			plan := thetaPlan(b, l, r, algebra.FunLt, false, false)
			band := NewWithConfig(xenc.NewStore(), Config{})
			product := NewWithConfig(xenc.NewStore(), Config{})
			product.ForceThetaDemotion()
			for _, c := range []struct {
				name string
				e    *Engine
			}{{"band", band}, {"product", product}} {
				b.Run(fmt.Sprintf("%dx%d/sel=%d%%/%s", nl, nr, pct, c.name), func(b *testing.B) {
					b.ReportAllocs()
					var rows int
					for i := 0; i < b.N; i++ {
						out, err := c.e.Eval(plan)
						if err != nil {
							b.Fatal(err)
						}
						rows = out.Rows()
					}
					b.ReportMetric(float64(rows), "pairs")
				})
			}
		}
	}
}
