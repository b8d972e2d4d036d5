package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
)

// stepOnce runs the step kernel the way the sequential executor does.
func stepOnce(tb testing.TB, e *Engine, in *bat.Table, axis algebra.Axis, test algebra.KindTest) *bat.Table {
	out, err := e.evalStep(context.Background(), in, axis, test)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// singletonIters renumbers the first n rows of a step result so that
// every node is the one context of its own iteration — the shape
// `for $p in … return $p/step` hands the kernel.
func singletonIters(tb testing.TB, nodes *bat.Table, n int) *bat.Table {
	if nodes.Rows() < n {
		tb.Fatalf("only %d context nodes, want %d", nodes.Rows(), n)
	}
	return bat.MustTable("iter", bat.Ramp(1, n), "item", nodes.MustCol("item").Slice(0, n))
}

// BenchmarkStepLoopLifted measures the step kernel alone on the shapes
// XMark's plans give it at SF 0.1: many iterations of one context each
// (q08–q12, every point lookup), one iteration scanning the document
// (q07, q14), and one iteration whose contexts nest (the only shape that
// re-sorts its output).
func BenchmarkStepLoopLifted(b *testing.B) {
	e := New(xenc.NewStore())
	doc, err := e.Store.LoadDocumentString("xmark.xml", xmark.GenerateString(0.1))
	if err != nil {
		b.Fatal(err)
	}
	root := bat.MustTable("iter", bat.IntVec{1}, "item", bat.NodeVec{doc})
	elems := stepOnce(b, e, root, algebra.Descendant, algebra.KindTest{Kind: algebra.TestElem})
	ids := stepOnce(b, e, elems, algebra.Attribute, algebra.KindTest{Kind: algebra.TestAttr, Name: "id"})
	named := stepOnce(b, e, ids, algebra.Parent, algebra.KindTest{Kind: algebra.TestNode}) // person, item, category, …
	contexts := singletonIters(b, named, 3000)

	cases := []struct {
		name string
		in   *bat.Table
		axis algebra.Axis
		test algebra.KindTest
	}{
		{"child-name/3000iters", contexts, algebra.Child, algebra.KindTest{Kind: algebra.TestElem, Name: "name"}},
		{"attribute-id/3000iters", contexts, algebra.Attribute, algebra.KindTest{Kind: algebra.TestAttr, Name: "id"}},
		{"descendant-description/1iter", root, algebra.Descendant, algebra.KindTest{Kind: algebra.TestElem, Name: "description"}},
		{"child-nested/1iter", elems, algebra.Child, algebra.KindTest{Kind: algebra.TestNode}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			rows := 0
			for i := 0; i < b.N; i++ {
				rows = stepOnce(b, e, c.in, c.axis, c.test).Rows()
			}
			b.ReportMetric(float64(c.in.Rows()), "ctx-rows")
			b.ReportMetric(float64(rows), "out-rows")
		})
	}
}

// TestStepAllocBudget: a step over many iterations allocates its output
// columns (grown by append past stepOutHint rows) and the table around
// them, nothing per iteration. (The kernel it replaced filed every
// context into a map and ran a morsel per iteration: more than three
// allocations each.)
func TestStepAllocBudget(t *testing.T) {
	allocs := func(persons int) float64 {
		var sb strings.Builder
		sb.WriteString("<people>")
		for i := 0; i < persons; i++ {
			fmt.Fprintf(&sb, `<person id="p%d"><name>n</name><age>3</age></person>`, i)
		}
		sb.WriteString("</people>")
		e := New(xenc.NewStore())
		doc, err := e.Store.LoadDocumentString("people.xml", sb.String())
		if err != nil {
			t.Fatal(err)
		}
		all := stepOnce(t, e, bat.MustTable("iter", bat.IntVec{1}, "item", bat.NodeVec{doc}),
			algebra.Descendant, algebra.KindTest{Kind: algebra.TestElem, Name: "person"})
		in := singletonIters(t, all, persons)
		name := algebra.KindTest{Kind: algebra.TestElem, Name: "name"}
		if got := stepOnce(t, e, in, algebra.Child, name).Rows(); got != persons {
			t.Fatalf("child::name over %d persons returned %d rows", persons, got)
		}
		return testing.AllocsPerRun(20, func() { stepOnce(t, e, in, algebra.Child, name) })
	}
	const ceiling = 40
	for _, iterations := range []int{100, 4000, 40000} {
		if got := allocs(iterations); got > ceiling {
			t.Errorf("child step over %d iterations allocates %.0f times, want at most %d for any number", iterations, got, ceiling)
		}
	}
}
