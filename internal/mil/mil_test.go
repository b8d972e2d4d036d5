package mil

import (
	"net"
	"strings"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/core"
	"pathfinder/internal/difftest"
	"pathfinder/internal/engine"
	"pathfinder/internal/physical"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xqcore"
)

func TestEmitParseRoundTripSimple(t *testing.T) {
	plan, _, err := core.CompileQuery(`for $v in (10,20) return $v + 100`, xqcore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Emit(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog, "return v") {
		t.Fatalf("program lacks return:\n%s", prog)
	}
	back, err := Parse(prog)
	if err != nil {
		t.Fatalf("parse emitted program: %v\n%s", err, prog)
	}
	// The round-tripped plan must evaluate identically.
	for _, p := range []*algebra.Op{plan, back} {
		e := engine.New(xenc.NewStore())
		if got, err := difftest.OnEngine(e, physical.Lower)(difftest.Query{Plan: p}); err != nil || got != "110 120" {
			t.Errorf("round trip: %q, %v", got, err)
		}
	}
}

func TestItemLiteralsRoundTrip(t *testing.T) {
	items := bat.ItemVec{
		bat.Int(-5), bat.Float(2.5), bat.Str(`quo"te`), bat.Untyped("u v"),
		bat.Bool(true), bat.Bool(false), bat.Node(bat.NodeRef{Frag: 3, Pre: 7}),
	}
	tbl := bat.MustTable("iter", bat.Ramp(1, len(items)), "item", items)
	prog, err := Emit(algebra.Lit(tbl))
	if err != nil {
		t.Fatal(err)
	}
	prog += "" // Emit already appends return
	back, err := Parse(prog)
	if err != nil {
		t.Fatalf("%v in\n%s", err, prog)
	}
	got := back.Lit
	if got.Rows() != len(items) {
		t.Fatalf("rows = %d", got.Rows())
	}
	for i := range items {
		if !bat.DeepEqual(got.MustCol("item").ItemAt(i), items[i]) {
			t.Errorf("item %d: %v != %v", i, got.MustCol("item").ItemAt(i), items[i])
		}
	}
}

// milText emits each plan as MIL text, parses the text back and runs
// that plan on an engine.
var milText = difftest.Evaluator{Name: "mil", Family: difftest.Relational,
	Run: func(tb testing.TB, docs []difftest.Doc) difftest.Eval {
		run := difftest.OnEngine(difftest.LoadEngine(tb, engine.Config{}, docs), physical.Lower)
		return func(q difftest.Query) (string, error) {
			prog, err := Emit(q.Plan)
			if err != nil {
				return "", err
			}
			plan, err := Parse(prog)
			if err != nil {
				return "", err
			}
			return run(difftest.Query{Plan: plan})
		}
	}}

// TestXMarkThroughMIL emits, parses, and executes every XMark query via
// the MIL path and compares it, like direct plan evaluation, with the
// goldens.
func TestXMarkThroughMIL(t *testing.T) {
	m := difftest.Matrix{Docs: difftest.XMarkDocs(), Evals: []difftest.Evaluator{
		difftest.Engine("direct", engine.Config{}), milText,
	}}
	m.Run(t, difftest.XMark(t))
}

func TestParseErrors(t *testing.T) {
	for _, prog := range []string{
		"",                             // no return
		"v0 := bogus(v1);\nreturn v0;", // unknown instruction
		"return v9;",                   // undefined var
		"v0 := table(x:int[i1]);\nv0 := table(x:int[i2]);\nreturn v0;", // reassign
		"v0 := select(v1, c);\nreturn v0;",                             // undefined operand
		"v0 := table(x:wat[i1]);\nreturn v0;",                          // bad type
		"v0 := table(x:int[zz]);\nreturn v0;",                          // bad literal
		"v0",                                                           // malformed
	} {
		if _, err := Parse(prog); err == nil {
			t.Errorf("program %q must fail", prog)
		}
	}
}

func TestSplitArgsEdgeCases(t *testing.T) {
	args, err := splitArgs(`v1, res, add, (item, item1)`)
	if err != nil || len(args) != 4 || args[3] != "(item, item1)" {
		t.Errorf("splitArgs: %v %v", args, err)
	}
	args2, err := splitArgs(`x:str[s"a, b" s"c"]`)
	if err != nil || len(args2) != 1 {
		t.Errorf("quoted comma: %v %v", args2, err)
	}
	if _, err := splitArgs(`(unbalanced`); err == nil {
		t.Error("unbalanced must fail")
	}
	if _, err := splitArgs(`"unterminated`); err == nil {
		t.Error("unterminated string must fail")
	}
}

// TestClientRejectsUnwireableNames: names that cannot travel in the
// space-delimited command header — whitespace shifts the fields, and a
// literal "-" collides with the no-context-doc placeholder the server
// drops — are rejected client-side before anything hits the wire. The
// client's peer is closed, so a bypassed check errors instead of hanging.
func TestClientRejectsUnwireableNames(t *testing.T) {
	ours, theirs := net.Pipe()
	theirs.Close()
	c := NewClient(ours)

	bad := []engine.QueryRequest{
		{Query: "1", ContextDoc: "-", Collection: "x"},
		{Query: "1", ContextDoc: "a b"},
		{Query: "1", ContextDoc: "a\tb", Collection: "x"},
		{Query: "1", Collection: "x y"},
		{Query: "1", Collection: "-"},
	}
	for _, req := range bad {
		if _, err := c.ExecXQReq(req); err == nil || !strings.Contains(err.Error(), "not representable") {
			t.Errorf("ExecXQReq(doc=%q coll=%q) err = %v, want wire-name rejection", req.ContextDoc, req.Collection, err)
		}
	}
	if err := c.Load("a b.xml", "<x/>"); err == nil || !strings.Contains(err.Error(), "not representable") {
		t.Errorf("Load with spaced uri err = %v, want wire-name rejection", err)
	}
	if _, err := c.Gen("-", 0.1); err == nil || !strings.Contains(err.Error(), "not representable") {
		t.Errorf("Gen with placeholder uri err = %v, want wire-name rejection", err)
	}
}
