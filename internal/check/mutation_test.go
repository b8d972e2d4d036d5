package check_test

// Mutation corpus: deliberately corrupted plans, one per way an upstream
// pass could lie to a downstream one. Each case must produce at least one
// diagnostic of its invariant class — proving the validator actually
// guards the boundary — and the rendered diagnostics are pinned as
// goldens so a refactor cannot silently weaken a check into vacuity.
//
// Regenerate the goldens after an intentional message change with
//
//	go test ./internal/check -run TestMutation -update

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/check"
	"pathfinder/internal/opt"
	"pathfinder/internal/physical"
)

var update = flag.Bool("update", false, "rewrite the golden diagnostic files")

// ints builds an integer column vector.
func ints(vals ...int64) bat.IntVec { return bat.IntVec(vals) }

// lit builds a literal leaf from name/vec pairs, failing the test on a
// malformed table (the corpus corrupts operators, never the bat layer).
func lit(t *testing.T, pairs ...any) *algebra.Op {
	t.Helper()
	tab, err := bat.NewTable(pairs...)
	if err != nil {
		t.Fatal(err)
	}
	return algebra.Lit(tab)
}

// mutation is one corrupted-plan case: build returns the diagnostics of
// the validation layer the corruption targets.
type mutation struct {
	name  string
	class string // invariant class at least one diagnostic must carry
	build func(t *testing.T) []check.Diag
}

var mutations = []mutation{
	// --- schema class: the logical DAG lies about its columns ---------
	{
		name:  "schema_select_missing_column",
		class: "schema",
		build: func(t *testing.T) []check.Diag {
			in := lit(t, "iter", ints(1, 2, 3))
			o := algebra.Unchecked(algebra.OpSelect, []string{"iter"}, in)
			o.Col = "pred" // σ over a column no input produces
			return check.Logical(o)
		},
	},
	{
		name:  "schema_project_duplicate_output",
		class: "schema",
		build: func(t *testing.T) []check.Diag {
			in := lit(t, "iter", ints(1, 2), "item", ints(10, 20))
			o := algebra.Unchecked(algebra.OpProject, []string{"a", "a"}, in)
			o.Proj = []algebra.ProjPair{{New: "a", Old: "iter"}, {New: "a", Old: "item"}}
			return check.Logical(o)
		},
	},
	{
		name:  "schema_rowid_shadows_column",
		class: "schema",
		build: func(t *testing.T) []check.Diag {
			in := lit(t, "iter", ints(1, 2))
			o := algebra.Unchecked(algebra.OpRowID, []string{"iter", "iter"}, in)
			o.Col = "iter" // mark column collides with an existing one
			return check.Logical(o)
		},
	},
	{
		name:  "schema_join_column_collision",
		class: "schema",
		build: func(t *testing.T) []check.Diag {
			l := lit(t, "iter", ints(1, 2), "item", ints(5, 6))
			r := lit(t, "iter2", ints(1, 2), "item", ints(7, 8))
			o := algebra.Unchecked(algebra.OpJoin,
				[]string{"iter", "item", "iter2", "item"}, l, r)
			o.KeyL, o.KeyR = []string{"iter"}, []string{"iter2"}
			return check.Logical(o)
		},
	},
	{
		name:  "schema_declared_drift",
		class: "schema",
		build: func(t *testing.T) []check.Diag {
			in := lit(t, "iter", ints(1, 2), "item", ints(3, 4))
			// δ passes its input schema through; the node declares a column
			// that does not exist downstream kernels would index.
			o := algebra.Unchecked(algebra.OpDistinct, []string{"iter", "bogus"}, in)
			return check.Logical(o)
		},
	},
	{
		name:  "schema_union_width_mismatch",
		class: "schema",
		build: func(t *testing.T) []check.Diag {
			l := lit(t, "iter", ints(1), "item", ints(2))
			r := lit(t, "iter", ints(3))
			o := algebra.Unchecked(algebra.OpUnion, []string{"iter", "item"}, l, r)
			return check.Logical(o)
		},
	},
	{
		name:  "structure_join_missing_input",
		class: "structure",
		build: func(t *testing.T) []check.Diag {
			l := lit(t, "iter", ints(1, 2))
			o := algebra.Unchecked(algebra.OpJoin, []string{"iter"}, l)
			o.KeyL, o.KeyR = []string{"iter"}, []string{"iter"}
			return check.Logical(o)
		},
	},
	// An ε skeleton names the slots it reads; a rewrite that loses a step
	// or renumbers two would hand one slot's rows to another's place.
	{
		name:  "structure_elem_dropped_slot",
		class: "structure",
		build: func(t *testing.T) []check.Diag {
			o := skeletonElem(t)
			// <a>$0<b>$1</b></a> with the $1 step gone: the second slot
			// input is read by nobody.
			o.Skel = append(append(algebra.Skeleton{}, o.Skel[:3]...), o.Skel[4:]...)
			return check.Logical(o)
		},
	},
	{
		name:  "structure_elem_swapped_slots",
		class: "structure",
		build: func(t *testing.T) []check.Diag {
			o := skeletonElem(t)
			sk := append(algebra.Skeleton{}, o.Skel...)
			sk[1].Slot, sk[3].Slot = sk[3].Slot, sk[1].Slot
			o.Skel = sk
			return check.Logical(o)
		},
	},
	{
		name:  "schema_elem_slot_without_pos",
		class: "schema",
		build: func(t *testing.T) []check.Diag {
			o := skeletonElem(t)
			o.In[2] = lit(t, "iter", ints(1), "item", ints(7))
			return check.Logical(o)
		},
	},
	{
		name:  "type_select_over_int",
		class: "type",
		build: func(t *testing.T) []check.Diag {
			in := lit(t, "iter", ints(1, 2), "item", ints(3, 4))
			o := algebra.Unchecked(algebra.OpSelect, []string{"iter", "item"}, in)
			o.Col = "iter" // σ over a column proven integer, never boolean
			return check.Logical(o)
		},
	},

	// --- order class: the optimizer publishes bits it cannot justify ---
	{
		name:  "order_forged_sorted",
		class: "order",
		build: func(t *testing.T) []check.Diag {
			root := lit(t, "item", ints(3, 1, 2))
			props := opt.Properties(root)
			props[root] = opt.Props{Sorted: []string{"item"}}
			return check.Properties(root, props)
		},
	},
	{
		name:  "order_forged_strict",
		class: "order",
		build: func(t *testing.T) []check.Diag {
			root := lit(t, "iter", ints(1, 1, 2))
			props := opt.Properties(root)
			// sorted(iter) is true, but claiming it duplicate-free would
			// license rownum[const1]-style eliminations downstream.
			props[root] = opt.Props{Sorted: []string{"iter"}, Strict: true}
			return check.Properties(root, props)
		},
	},
	{
		name:  "order_missing_props",
		class: "order",
		build: func(t *testing.T) []check.Diag {
			root := lit(t, "iter", ints(1, 2))
			props := opt.Properties(root)
			delete(props, root)
			return check.Properties(root, props)
		},
	},

	// --- decorrelation class: join graph isolation gone wrong ----------
	// The isolation pass splices numbering operators out in place; each
	// case forges one way a buggy splice could lie to the layers below.
	{
		name:  "schema_isolation_dropped_iter",
		class: "schema",
		build: func(t *testing.T) []check.Diag {
			// A decorrelation splice that rewires a projection onto a
			// subplan that no longer produces the iter column the
			// projection still threads — the loop membership is gone.
			in := lit(t, "iter", ints(1, 2), "item", ints(5, 6))
			rn, err := algebra.RowNum(in, "pos", []algebra.OrderSpec{{Col: "item"}}, "iter")
			if err != nil {
				t.Fatal(err)
			}
			pj, err := algebra.Project(rn, "iter", "pos")
			if err != nil {
				t.Fatal(err)
			}
			pj.In[0] = lit(t, "inner", ints(1, 2), "item", ints(5, 6))
			return check.Logical(pj)
		},
	},
	{
		name:  "order_isolation_false_claim",
		class: "order",
		build: func(t *testing.T) []check.Diag {
			// An isolation rewrite is only sound across an N:1 join; here
			// the right key has duplicates, yet the plan claims the left
			// ordering survived strictly — the false order claim that
			// would license removing the order-restoring rownum.
			l := lit(t, "iter", ints(1, 2, 3))
			r := lit(t, "outer", ints(1, 1, 2), "item", ints(7, 8, 9))
			j, err := algebra.Join(l, r, []string{"iter"}, []string{"outer"})
			if err != nil {
				t.Fatal(err)
			}
			props := opt.Properties(j)
			props[j] = opt.Props{Sorted: []string{"iter"}, Strict: true}
			return check.Properties(j, props)
		},
	},
	{
		name:  "schema_isolation_cse_differing_predicates",
		class: "schema",
		build: func(t *testing.T) []check.Diag {
			// Cross-operator CSE that wrongly canonicalizes σ[b] onto the
			// shared σ[a] subplan: the surviving branch only carries a, so
			// the predicate column the other branch selected is gone.
			base := lit(t, "iter", ints(1, 2), "a", ints(1, 0), "b", ints(0, 1))
			sa, err := algebra.Select(base, "a")
			if err != nil {
				t.Fatal(err)
			}
			pa, err := algebra.Project(sa, "iter", "a")
			if err != nil {
				t.Fatal(err)
			}
			sb := algebra.Unchecked(algebra.OpSelect, []string{"iter", "a"}, pa)
			sb.Col = "b"
			return check.Logical(sb)
		},
	},

	// --- dense class: a 1..n claim with a hole in it -------------------
	{
		name:  "dense_forged_column",
		class: "dense",
		build: func(t *testing.T) []check.Diag {
			root := lit(t, "pos", ints(1, 2, 4))
			props := opt.Properties(root)
			props[root] = opt.Props{Sorted: []string{"pos"}, Strict: true, Dense: []string{"pos"}}
			return check.Properties(root, props)
		},
	},

	// --- physical class: a lowering decision outside its domain ---------
	{
		name:  "physical_estrows_below_unknown",
		class: "physical",
		build: func(t *testing.T) []check.Diag {
			d := algebra.Distinct(lit(t, "iter", ints(1, 2)))
			p := physical.Lower(d)
			p.Root.EstRows = -2 // admission would price the plan below its literal
			return check.Physical(p)
		},
	},
	// --- stream class: an ε streamed although something reads its nodes
	// A streamed ε builds no fragment: its nodes are bytes the serializer
	// asks for, and any kernel that looks at one finds nothing.
	{
		name:  "stream_elem_under_step",
		class: "stream",
		build: func(t *testing.T) []check.Diag {
			e := streamShape(t)
			step, err := algebra.Step(e, algebra.Child, algebra.KindTest{Kind: algebra.TestElem})
			if err != nil {
				t.Fatal(err)
			}
			return forceStream(step, e)
		},
	},
	{
		name:  "stream_elem_into_built_slot",
		class: "stream",
		build: func(t *testing.T) []check.Diag {
			inner := streamShape(t)
			slot, err := algebra.RowNum(inner, "pos", []algebra.OrderSpec{{Col: "iter"}}, "iter")
			if err != nil {
				t.Fatal(err)
			}
			outer, err := algebra.ElemSkel(lit(t, "iter", ints(1, 2)), mustSkeleton(t, "<a>$0</a>"), slot)
			if err != nil {
				t.Fatal(err)
			}
			// The outer ε materializes — a step reads its nodes — so it
			// copies the inner one's, which were never built.
			step, err := algebra.Step(outer, algebra.Child, algebra.KindTest{Kind: algebra.TestElem})
			if err != nil {
				t.Fatal(err)
			}
			return forceStream(step, inner)
		},
	},
	{
		name:  "stream_elem_sorted_on",
		class: "stream",
		build: func(t *testing.T) []check.Diag {
			e := streamShape(t)
			rn, err := algebra.RowNum(e, "pos", []algebra.OrderSpec{{Col: "item"}}, "iter")
			if err != nil {
				t.Fatal(err)
			}
			return forceStream(rn, e) // document order needs the nodes
		},
	},
	{
		name:  "stream_elem_atomized",
		class: "stream",
		build: func(t *testing.T) []check.Diag {
			e := streamShape(t)
			data, err := algebra.Fun(e, "v", algebra.FunAtomize, "item")
			if err != nil {
				t.Fatal(err)
			}
			rn, err := algebra.Project(data, "iter", "pos:iter", "item:v")
			if err != nil {
				t.Fatal(err)
			}
			return forceStream(rn, e)
		},
	},
	{
		name:  "stream_elem_flag_on_select",
		class: "stream",
		build: func(t *testing.T) []check.Diag {
			in := lit(t, "iter", ints(1, 2), "pos", ints(1, 1), "item", ints(5, 6), "keep", bat.BoolVec{true, false})
			sel, err := algebra.Select(in, "keep")
			if err != nil {
				t.Fatal(err)
			}
			return forceStream(sel, sel)
		},
	},
	// --- thetajoin class: forged theta-join metadata --------------------
	// A theta join lets the executor skip building the × altogether; a
	// lying one hands rows that were never built to whoever reads them.
	{
		name:  "thetajoin_second_consumer_on_cross",
		class: "thetajoin",
		build: func(t *testing.T) []check.Diag {
			cross, fn, sel := thetaShape(t, algebra.FunLt, "a", "b")
			// A second reader of the product, outside the unit: the band
			// kernel would leave it nothing to read.
			side, err := algebra.Project(cross, "a", "b")
			if err != nil {
				t.Fatal(err)
			}
			pairs, err := algebra.Project(sel, "a", "b")
			if err != nil {
				t.Fatal(err)
			}
			u, err := algebra.Union(pairs, side)
			if err != nil {
				t.Fatal(err)
			}
			p := physical.Lower(u)
			if len(p.ThetaJoins) != 0 {
				t.Fatal("test premise broken: the lowering accepted a shared ×")
			}
			forgeTheta(p, cross, fn, sel, "a", "b", algebra.FunLt).Demand = []string{"a", "b"}
			return check.Physical(p)
		},
	},
	{
		name:  "thetajoin_demand_drops_read_column",
		class: "thetajoin",
		build: func(t *testing.T) []check.Diag {
			_, _, sel := thetaShape(t, algebra.FunLt, "a", "b")
			pairs, err := algebra.Project(sel, "a", "b")
			if err != nil {
				t.Fatal(err)
			}
			p := physical.Lower(pairs)
			if len(p.ThetaJoins) != 1 {
				t.Fatal("test premise broken: the lowering found no theta join")
			}
			// π reads b; a kernel told otherwise never gathers it.
			p.ThetaJoins[0].Demand = []string{"a"}
			return check.Physical(p)
		},
	},
	{
		name:  "thetajoin_not_equal_predicate",
		class: "thetajoin",
		build: func(t *testing.T) []check.Diag {
			cross, fn, sel := thetaShape(t, algebra.FunNe, "a", "b")
			p := physical.Lower(sel)
			// != qualifies everything but one key: no band to search.
			forgeTheta(p, cross, fn, sel, "a", "b", algebra.FunNe)
			return check.Physical(p)
		},
	},
	{
		name:  "thetajoin_operands_from_one_side",
		class: "thetajoin",
		build: func(t *testing.T) []check.Diag {
			cross, fn, sel := thetaShape(t, algebra.FunLt, "a", "a2")
			p := physical.Lower(sel)
			// Both operands are columns of the left input: a per-row filter
			// of that input, not a join predicate.
			forgeTheta(p, cross, fn, sel, "a", "a2", algebra.FunLt)
			return check.Physical(p)
		},
	},
	{
		name:  "thetajoin_count_tail_second_reader",
		class: "thetajoin",
		build: func(t *testing.T) []check.Diag {
			cross, fn, sel := thetaShape(t, algebra.FunLt, "a", "b")
			proj, dist, cnt := countTail(t, sel, "a", "a", "b")
			// A second reader of δ: the count-only kernel builds no pair
			// for it to read.
			side, err := algebra.Project(dist, "a")
			if err != nil {
				t.Fatal(err)
			}
			byOnly, err := algebra.Project(cnt, "a")
			if err != nil {
				t.Fatal(err)
			}
			u, err := algebra.Union(byOnly, side)
			if err != nil {
				t.Fatal(err)
			}
			p := physical.Lower(u)
			if len(p.ThetaJoins) != 1 || p.ThetaJoins[0].Count != nil {
				t.Fatal("test premise broken: the lowering counted a shared δ's pairs")
			}
			forgeCountTail(p, cross, fn, sel, proj, dist, cnt, "a", "b")
			return check.Physical(p)
		},
	},
	{
		name:  "thetajoin_count_by_inner_column",
		class: "thetajoin",
		build: func(t *testing.T) []check.Diag {
			cross, fn, sel := thetaShape(t, algebra.FunLt, "a", "b")
			// The count is grouped by the right input's column; the kernel
			// walks the left input's rows.
			proj, dist, cnt := countTail(t, sel, "b", "a", "b")
			p := physical.Lower(cnt)
			if len(p.ThetaJoins) != 1 || p.ThetaJoins[0].Count != nil {
				t.Fatal("test premise broken: the lowering accepted a count by the inner column")
			}
			forgeCountTail(p, cross, fn, sel, proj, dist, cnt, "a", "b")
			return check.Physical(p)
		},
	},
	{
		name:  "physical_root_not_last",
		class: "structure",
		build: func(t *testing.T) []check.Diag {
			in := lit(t, "iter", ints(1, 2))
			d := algebra.Distinct(in)
			p := physical.Lower(d)
			p.Nodes[0], p.Nodes[1] = p.Nodes[1], p.Nodes[0] // break the topological order
			return check.Physical(p)
		},
	},
	{
		name:  "physical_slot_not_position",
		class: "structure",
		build: func(t *testing.T) []check.Diag {
			d := algebra.Distinct(lit(t, "iter", ints(1, 2)))
			p := physical.Lower(d)
			p.Nodes[1].Pos = 0 // the executor would overwrite its input's result
			return check.Physical(p)
		},
	},
}

// skeletonElem builds the ε <a>$0<b>$1</b></a> over a one-iteration
// loop and two iter|pos|item slots.
func skeletonElem(t *testing.T) *algebra.Op {
	t.Helper()
	skel, err := algebra.ParseSkeleton("<a>$0<b>$1</b></a>")
	if err != nil {
		t.Fatal(err)
	}
	slot := func(v int64) *algebra.Op { return lit(t, "iter", ints(1), "pos", ints(1), "item", ints(v)) }
	o, err := algebra.ElemSkel(lit(t, "iter", ints(1)), skel, slot(1), slot(2))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// thetaShape builds σ_c(⊛fun c:(x,y)(A × B)) over A(a, a2) and B(b).
func thetaShape(t *testing.T, fun algebra.FunKind, x, y string) (cross, fn, sel *algebra.Op) {
	t.Helper()
	l := lit(t, "a", ints(1, 2, 3), "a2", ints(3, 2, 1))
	r := lit(t, "b", ints(2, 3))
	cross, err := algebra.Cross(l, r)
	if err != nil {
		t.Fatal(err)
	}
	if fn, err = algebra.Fun(cross, "c", fun, x, y); err != nil {
		t.Fatal(err)
	}
	if sel, err = algebra.Select(fn, "c"); err != nil {
		t.Fatal(err)
	}
	return cross, fn, sel
}

// forgeTheta publishes a theta join the lowering did not discover,
// demanding σ's whole schema.
func forgeTheta(p *physical.Plan, cross, fn, sel *algebra.Op, lcol, rcol string, cmp algebra.FunKind) *physical.ThetaJoin {
	tj := &physical.ThetaJoin{
		ID:    len(p.ThetaJoins) + 1,
		Cross: nodeOf(p, cross), Fun: nodeOf(p, fn), Select: nodeOf(p, sel),
		LeftCol: lcol, RightCol: rcol, Cmp: cmp,
		Demand: sel.Schema(),
	}
	p.ThetaJoins = append(p.ThetaJoins, tj)
	return tj
}

// countTail builds count n:()/part(δ(π cols(sel))).
func countTail(t *testing.T, sel *algebra.Op, part string, cols ...string) (proj, dist, cnt *algebra.Op) {
	t.Helper()
	proj, err := algebra.Project(sel, cols...)
	if err != nil {
		t.Fatal(err)
	}
	dist = algebra.Distinct(proj)
	if cnt, err = algebra.Aggr(dist, "n", algebra.AggCount, "", part); err != nil {
		t.Fatal(err)
	}
	return proj, dist, cnt
}

// forgeCountTail replaces the plan's theta joins by one that claims the
// given count-only tail.
func forgeCountTail(p *physical.Plan, cross, fn, sel, proj, dist, cnt *algebra.Op, by, of string) {
	p.ThetaJoins = nil
	tj := forgeTheta(p, cross, fn, sel, "a", "b", algebra.FunLt)
	tj.Demand = []string{"a", "b"}
	tj.Project, tj.Distinct, tj.Count = nodeOf(p, proj), nodeOf(p, dist), nodeOf(p, cnt)
	tj.CountBy, tj.CountOf = by, of
	tj.Count.EstRows = tj.Cross.In[0].EstRows
}

// streamShape is an ε of one element per iteration with an integer for
// content: the shape the stream cases route somewhere a streamed ε's
// nodes must not go.
func streamShape(t *testing.T) *algebra.Op {
	t.Helper()
	content := lit(t, "iter", ints(1, 2), "pos", ints(1, 1), "item", ints(7, 8))
	e, err := algebra.ElemSkel(lit(t, "iter", ints(1, 2)), mustSkeleton(t, "<b>$0</b>"), content)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mustSkeleton(t *testing.T, src string) algebra.Skeleton {
	t.Helper()
	s, err := algebra.ParseSkeleton(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// forceStream lowers root, marks o's node streamed whatever the lowering
// decided, and checks the plan.
func forceStream(root, o *algebra.Op) []check.Diag {
	p := physical.Lower(root)
	nodeOf(p, o).Stream = true
	return check.Physical(p)
}

// nodeOf is p's node for the logical operator o.
func nodeOf(p *physical.Plan, o *algebra.Op) *physical.Node {
	for _, nd := range p.Nodes {
		if nd.Op == o {
			return nd
		}
	}
	return nil
}

// TestMutationsCaught asserts every corrupted plan yields at least one
// diagnostic of its invariant class, and pins the rendered output.
func TestMutationsCaught(t *testing.T) {
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			diags := m.build(t)
			if len(diags) == 0 {
				t.Fatalf("corrupted plan validated clean")
			}
			found := false
			for _, d := range diags {
				if d.Class == m.class {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("no %q diagnostic among:\n%s", m.class, check.Render(diags))
			}
			compareGolden(t, m.name, check.Render(diags))
		})
	}
}

// TestMutationClassCoverage proves the corpus exercises every invariant
// class the validator knows — the acceptance bar for the checker.
func TestMutationClassCoverage(t *testing.T) {
	want := []string{"structure", "schema", "type", "order", "dense", "physical", "thetajoin", "stream"}
	have := map[string]bool{}
	for _, m := range mutations {
		have[m.class] = true
	}
	for _, c := range want {
		if !have[c] {
			t.Errorf("no mutation case targets invariant class %q", c)
		}
	}
}

func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics drifted from golden %s:\n got:\n%s\n want:\n%s",
			path, indent(got), indent(string(want)))
	}
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ")
}

// TestLoweredChecksTheLowering: Lowered, the service's entry point over a
// lowering it already holds, reports a forged property claim exactly as
// Physical does, and nothing over the honest lowering.
func TestLoweredChecksTheLowering(t *testing.T) {
	join, err := algebra.Join(lit(t, "k", ints(3, 1, 2)), lit(t, "j", ints(2, 3, 1)), []string{"k"}, []string{"j"})
	if err != nil {
		t.Fatal(err)
	}
	p := physical.Lower(join)
	if diags := check.Lowered(p); len(diags) > 0 {
		t.Fatalf("honest lowering: %s", check.Render(diags))
	}
	// The optimizer claims the join's left input sorted on its key.
	restore := check.ForgeProperties(func(ops []*algebra.Op, props []opt.Props) {
		props[0] = opt.Props{Sorted: []string{"k"}}
	})
	defer restore()
	got, want := check.Render(check.Lowered(p)), check.Render(check.Physical(p))
	if want == "" || got != want {
		t.Errorf("forged sortedness: Lowered reports\n%s\nPhysical reports\n%s", got, want)
	}
}
