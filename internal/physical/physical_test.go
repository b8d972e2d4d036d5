package physical

import (
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

// Property-driven kernel selection: the lowering pass must pick the merge
// kernel exactly when the optimizer proves both inputs sorted on the key.
func TestLowerJoinKernelSelection(t *testing.T) {
	sortedL := sortedLit("k", 1, 2, 3)
	sortedR := mustOp(algebra.Project(sortedLit("k", 1, 2, 2, 5), "j:k"))
	unsorted := algebra.Lit(bat.MustTable("j", bat.IntVec{3, 1, 2}))

	nd := kernelOf(t, mustOp(algebra.Join(sortedL, sortedR, []string{"k"}, []string{"j"})))
	if !nd.Merge || nd.Kernel != "merge-join" {
		t.Errorf("sorted ⋈ sorted: kernel = %q, merge = %v", nd.Kernel, nd.Merge)
	}

	nd = kernelOf(t, mustOp(algebra.Join(sortedL, unsorted, []string{"k"}, []string{"j"})))
	if nd.Merge || nd.Kernel != "hash-join" {
		t.Errorf("sorted ⋈ unsorted: kernel = %q, merge = %v", nd.Kernel, nd.Merge)
	}

	nd = kernelOf(t, mustOp(algebra.SemiJoin(sortedL, sortedR, []string{"k"}, []string{"j"})))
	if !nd.Merge || nd.Kernel != "merge-semijoin" || !nd.Pipeline {
		t.Errorf("sorted ⋉ sorted: kernel = %q, merge = %v, pipeline = %v",
			nd.Kernel, nd.Merge, nd.Pipeline)
	}

	// Multi-column keys never merge (the kernel is single-key).
	two := algebra.Lit(bat.MustTable("a", bat.IntVec{1, 2}, "b", bat.IntVec{1, 2}))
	twoR := mustOp(algebra.Project(two, "c:a", "d:b"))
	nd = kernelOf(t, mustOp(algebra.Join(two, twoR, []string{"a", "b"}, []string{"c", "d"})))
	if nd.Merge {
		t.Errorf("multi-key join must not merge: %q", nd.Kernel)
	}
}

// Dense-partition ϱ lowers to the constant-1 kernel: mark emits 1..n, so
// numbering per mark partition is constant 1 — no sort, no scan.
func TestLowerRowNumKernelSelection(t *testing.T) {
	base := algebra.Lit(bat.MustTable("item", bat.IntVec{7, 9, 8}))
	marked := mustOp(algebra.RowID(base, "inner"))

	nd := kernelOf(t, mustOp(algebra.RowNum(marked, "pos", nil, "inner")))
	if !nd.Const1 || nd.Kernel != "rownum[const1]" {
		t.Errorf("dense partition: kernel = %q, const1 = %v", nd.Kernel, nd.Const1)
	}

	// Sorted input, no partition: presorted numbering.
	sorted := sortedLit("iter", 1, 1, 2)
	nd = kernelOf(t, mustOp(algebra.RowNum(sorted, "pos",
		[]algebra.OrderSpec{{Col: "iter"}}, "")))
	if !nd.Presorted || nd.Kernel != "rownum[presorted]" {
		t.Errorf("sorted input: kernel = %q, presorted = %v", nd.Kernel, nd.Presorted)
	}

	// Unsorted order column: full sort kernel.
	unsorted := algebra.Lit(bat.MustTable("x", bat.IntVec{3, 1, 2}))
	nd = kernelOf(t, mustOp(algebra.RowNum(unsorted, "pos",
		[]algebra.OrderSpec{{Col: "x"}}, "")))
	if nd.Const1 || nd.Presorted || nd.Kernel != "rownum[sort]" {
		t.Errorf("unsorted input: kernel = %q", nd.Kernel)
	}

	// Descending order never counts as presorted.
	nd = kernelOf(t, mustOp(algebra.RowNum(sorted, "pos",
		[]algebra.OrderSpec{{Col: "iter", Desc: true}}, "")))
	if nd.Presorted {
		t.Errorf("descending order lowered to presorted kernel")
	}
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
		if !nd.Pipeline {
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
		if nd.Pipeline {
			t.Errorf("%s must be a breaker", name)
		}
	}
}

// The Parallel flag follows kernel shape and static cardinality: tiny
// literal-rooted inputs keep the sequential fast path, unknown-size
// inputs (anything downstream of a step) may go morsel-parallel.
func TestLowerParallelFlag(t *testing.T) {
	tiny := sortedLit("k", 1, 2, 3)
	big := algebra.Lit(bat.MustTable("k", bat.Ramp(1, 2*ParallelMinRows)))

	// Known-tiny input: sequential fast path.
	nd := kernelOf(t, mustOp(algebra.Fun(tiny, "b", algebra.FunEq, "k", "k")))
	if nd.Parallel {
		t.Errorf("map over %d known rows must not be parallel", 3)
	}
	if nd.EstRows != 3 {
		t.Errorf("map est = %d, want 3", nd.EstRows)
	}

	// Large known input: morsel-parallel.
	nd = kernelOf(t, mustOp(algebra.Fun(big, "b", algebra.FunEq, "k", "k")))
	if !nd.Parallel {
		t.Errorf("map over %d known rows must be parallel", 2*ParallelMinRows)
	}

	// Steps have data-dependent fan-out: est unknown, flag set — the
	// runtime morsel count decides.
	doc := mustOp(algebra.Fun(big, "s", algebra.FunString, "k"))
	step := mustOp(algebra.Step(mustOp(algebra.Project(
		algebra.Lit(bat.MustTable("iter", bat.IntVec{1}, "item", bat.NodeVec{{}})),
		"iter", "item")), algebra.Descendant, algebra.KindTest{Kind: algebra.TestNode}))
	_ = doc
	ndStep := kernelOf(t, step)
	if ndStep.EstRows != -1 || !ndStep.Parallel {
		t.Errorf("step: est = %d, parallel = %v; want -1, true", ndStep.EstRows, ndStep.Parallel)
	}
	// Downstream of the step the estimate stays unknown, so a filter
	// there is parallel even though the document might be small.
	sel := mustOp(algebra.Select(mustOp(algebra.Fun(step, "b", algebra.FunEq, "iter", "iter")), "b"))
	if nd := kernelOf(t, sel); !nd.Parallel || nd.EstRows != -1 {
		t.Errorf("filter below step: est = %d, parallel = %v; want -1, true", nd.EstRows, nd.Parallel)
	}

	// Merge joins are single ordered scans — never parallel; the same
	// join shape over unsorted inputs hashes and parallelizes.
	bigR := mustOp(algebra.Project(big, "j:k"))
	if nd := kernelOf(t, mustOp(algebra.Join(big, bigR, []string{"k"}, []string{"j"}))); nd.Parallel || !nd.Merge {
		t.Errorf("merge join: parallel = %v, merge = %v", nd.Parallel, nd.Merge)
	}
	unsorted := algebra.Lit(bat.MustTable("j", append(bat.IntVec{2, 1}, bat.Ramp(3, 2*ParallelMinRows)...)))
	if nd := kernelOf(t, mustOp(algebra.Join(big, unsorted, []string{"k"}, []string{"j"}))); !nd.Parallel || nd.Merge {
		t.Errorf("hash join: parallel = %v, merge = %v", nd.Parallel, nd.Merge)
	}

	// Scalar aggregates are a single fold (float summation order);
	// partitioned aggregation groups per morsel and merges.
	if nd := kernelOf(t, mustOp(algebra.Aggr(big, "s", algebra.AggSum, "k", ""))); nd.Parallel || nd.EstRows != 1 {
		t.Errorf("scalar aggr: parallel = %v, est = %d", nd.Parallel, nd.EstRows)
	}
	if nd := kernelOf(t, mustOp(algebra.Aggr(big, "s", algebra.AggSum, "k", "k"))); !nd.Parallel {
		t.Errorf("partitioned aggr over large input must be parallel")
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
