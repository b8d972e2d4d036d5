package physical

import (
	"go/build"
	"slices"
	"strings"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

func mustOp(o *algebra.Op, err error) *algebra.Op {
	if err != nil {
		panic(err)
	}
	return o
}

// nodeOf is p's node for the logical operator o.
func nodeOf(p *Plan, o *algebra.Op) *Node {
	for _, nd := range p.Nodes {
		if nd.Op == o {
			return nd
		}
	}
	return nil
}

func sortedLit(col string, vals ...int64) *algebra.Op {
	return algebra.Lit(bat.MustTable(col, bat.IntVec(vals)))
}

func kernelOf(t *testing.T, root *algebra.Op) *Node {
	t.Helper()
	p := Lower(root)
	if p.Root.Op != root {
		t.Fatalf("plan root is not the logical root")
	}
	return p.Root
}

func TestLowerPipelineFlags(t *testing.T) {
	lit := sortedLit("k", 1, 2, 3)
	pipeline := map[string]*algebra.Op{
		"filter":  mustOp(algebra.Select(mustOp(algebra.Fun(lit, "b", algebra.FunEq, "k", "k")), "b")),
		"project": mustOp(algebra.Project(lit, "x:k")),
		"mark":    mustOp(algebra.RowID(lit, "m")),
	}
	for name, root := range pipeline {
		nd := kernelOf(t, root)
		if !Pipeline(nd.Op.Kind) {
			t.Errorf("%s must be a pipeline operator", name)
		}
		if !strings.HasPrefix(nd.Kernel, name) {
			t.Errorf("%s kernel = %q", name, nd.Kernel)
		}
	}
	breakers := map[string]*algebra.Op{
		"distinct": algebra.Distinct(lit),
		"concat":   mustOp(algebra.Union(lit, lit)),
	}
	for name, root := range breakers {
		nd := kernelOf(t, root)
		if Pipeline(nd.Op.Kind) {
			t.Errorf("%s must be a breaker", name)
		}
	}
}

// EstRows is a bound from literal sizes, unknown (-1) downstream of a
// step.
func TestLowerEstRows(t *testing.T) {
	tiny := sortedLit("k", 1, 2, 3)
	big := algebra.Lit(bat.MustTable("k", bat.Ramp(1, 8192)))

	if nd := kernelOf(t, mustOp(algebra.Fun(tiny, "b", algebra.FunEq, "k", "k"))); nd.EstRows != 3 {
		t.Errorf("map est = %d, want 3", nd.EstRows)
	}

	// Steps have data-dependent fan-out: est unknown, and so downstream.
	step := mustOp(algebra.Step(mustOp(algebra.Project(
		algebra.Lit(bat.MustTable("iter", bat.IntVec{1}, "item", bat.NodeVec{{}})),
		"iter", "item")), algebra.Descendant, algebra.KindTest{Kind: algebra.TestNode}))
	if nd := kernelOf(t, step); nd.EstRows != -1 {
		t.Errorf("step: est = %d, want -1", nd.EstRows)
	}
	sel := mustOp(algebra.Select(mustOp(algebra.Fun(step, "b", algebra.FunEq, "iter", "iter")), "b"))
	if nd := kernelOf(t, sel); nd.EstRows != -1 {
		t.Errorf("filter below step: est = %d, want -1", nd.EstRows)
	}

	if nd := kernelOf(t, mustOp(algebra.Aggr(big, "s", algebra.AggSum, "k", ""))); nd.EstRows != 1 {
		t.Errorf("scalar aggr: est = %d, want 1", nd.EstRows)
	}
}

// The lowering names a kernel family per operator kind, whatever order
// or denseness the inputs have: the executor picks merge or hash, and
// the ϱ numbering path, from the rows.
func TestLowerKernelIsTheKind(t *testing.T) {
	sorted := sortedLit("k", 1, 2, 3)
	unsorted := algebra.Lit(bat.MustTable("j", bat.IntVec{3, 1, 2}))
	marked := mustOp(algebra.RowID(sorted, "m"))
	for want, root := range map[string]*algebra.Op{
		"join":     mustOp(algebra.Join(sorted, mustOp(algebra.Project(sorted, "j:k")), []string{"k"}, []string{"j"})),
		"semijoin": mustOp(algebra.SemiJoin(sorted, unsorted, []string{"k"}, []string{"j"})),
		"rownum":   mustOp(algebra.RowNum(marked, "pos", nil, "m")),
	} {
		if nd := kernelOf(t, root); nd.Kernel != want {
			t.Errorf("%s lowered to kernel %q", root.Kind, nd.Kernel)
		}
	}
	if kernelOf(t, mustOp(algebra.RowNum(unsorted, "pos", []algebra.OrderSpec{{Col: "j", Desc: true}}, ""))).Kernel != "rownum" {
		t.Error("a descending ϱ lowered to another kernel than rownum")
	}
}

// internal/physical decides nothing from the optimizer's properties: it
// must not import internal/opt.
func TestPhysicalDoesNotImportOpt(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(pkg.Imports, "pathfinder/internal/opt") {
		t.Errorf("internal/physical imports internal/opt: %v", pkg.Imports)
	}
}

// Shared logical subplans must lower to shared physical nodes, keeping
// the exactly-once evaluation guarantee.
func TestLowerPreservesSharing(t *testing.T) {
	shared := sortedLit("k", 1, 2)
	a := mustOp(algebra.Project(shared, "x:k"))
	b := mustOp(algebra.Project(shared, "y:k"))
	j := mustOp(algebra.Join(a, b, []string{"x"}, []string{"y"}))
	p := Lower(j)
	if len(p.Nodes) != algebra.CountOps(j) {
		t.Fatalf("%d physical nodes for %d logical ops", len(p.Nodes), algebra.CountOps(j))
	}
	if nodeOf(p, a).In[0] != nodeOf(p, b).In[0] {
		t.Error("shared logical input lowered to distinct physical nodes")
	}
}
