package mil

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/core"
	"pathfinder/internal/corpus"
	"pathfinder/internal/difftest"
	"pathfinder/internal/engine"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
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
		if got, err := difftest.OnEngine(e, e.Eval)(difftest.Query{Plan: p}); err != nil || got != "110 120" {
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

// milText ships each plan as MIL text to a server of its own, which
// parses and executes it.
var milText = difftest.Evaluator{Name: "mil", Family: difftest.Relational,
	Run: func(tb testing.TB, docs []difftest.Doc) difftest.Eval {
		srv := NewServer()
		for _, d := range docs {
			if _, err := srv.Engine().Store.LoadDocumentString(d.URI, d.Text); err != nil {
				tb.Fatal(err)
			}
		}
		return func(q difftest.Query) (string, error) {
			prog, err := Emit(q.Plan)
			if err != nil {
				return "", err
			}
			return srv.Exec(prog)
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

func TestServerProtocol(t *testing.T) {
	srv := NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l) //nolint:errcheck — returns when the listener closes

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Load("tiny.xml", `<a><b>x</b></a>`); err != nil {
		t.Fatalf("LOAD: %v", err)
	}
	if err := c.Load("tiny.xml", `<a/>`); err == nil {
		t.Error("duplicate LOAD must fail")
	}
	if _, err := c.Gen("xmark.xml", 0.001); err != nil {
		t.Fatalf("GEN: %v", err)
	}

	plan, _, err := core.CompileQuery(`count(doc("xmark.xml")//person)`, xqcore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Emit(plan)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.ExecMIL(prog)
	if err != nil {
		t.Fatalf("MIL: %v", err)
	}
	if out != "60" { // the people floor at tiny scale factors
		t.Errorf("count(//person) over generated doc = %q", out)
	}

	storage, err := c.Storage()
	if err != nil || !strings.Contains(storage, "nodes=") {
		t.Errorf("STORAGE: %q, %v", storage, err)
	}

	if _, err := c.ExecMIL("garbage"); err == nil {
		t.Error("bad MIL must yield ERR")
	}
}

// TestServerRejectsOversizedPayload: a declared byte count above the
// payload limit is refused before any allocation — one line must not be
// able to force a multi-GB make([]byte, n) — and the connection closes,
// since the unread payload leaves the framing unrecoverable.
func TestServerRejectsOversizedPayload(t *testing.T) {
	srv := NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l) //nolint:errcheck — returns when the listener closes

	for _, line := range []string{"MIL 9999999999\n", "XQ 2097152 d\n", "LOAD u 999999999999\n"} {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(conn)
		if _, err := c.roundTrip(line, nil); err == nil ||
			!strings.Contains(err.Error(), "exceeds limit") {
			t.Errorf("%q: want payload-limit ERR, got %v", strings.TrimSpace(line), err)
		}
		// The server closed the broken connection; the next read sees EOF.
		if _, err := c.roundTrip("STORAGE\n", nil); err == nil {
			t.Errorf("%q: connection stayed open after framing break", strings.TrimSpace(line))
		}
		conn.Close()
	}

	// In-limit payloads on a fresh connection still work.
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Load("ok.xml", "<a/>"); err != nil {
		t.Fatalf("in-limit LOAD after rejections: %v", err)
	}
}

// TestServerConcurrentClients hammers one server from several goroutines:
// the store mutex must keep concurrent MIL executions (which construct
// fragments) consistent.
func TestServerConcurrentClients(t *testing.T) {
	srv := NewServer()
	if _, err := srv.Engine().Store.LoadDocumentString("xmark.xml",
		xmark.GenerateString(0.001)); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l) //nolint:errcheck — returns when the listener closes

	plan, _, err := core.CompileQuery(
		`<r>{count(doc("xmark.xml")//person)}</r>`, xqcore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Emit(plan)
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 8, 10
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			c, err := Dial(l.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < rounds; i++ {
				out, err := c.ExecMIL(prog)
				if err != nil {
					errs <- err
					return
				}
				if out != "<r>60</r>" {
					errs <- fmt.Errorf("got %q", out)
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
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

// TestServerConstructingRequestsLeaveStoreAlone: 500 constructing requests
// through the server's two evaluation sites — a shipped MIL program and a
// server-compiled XQuery — answer what the goldens and the constructor
// corpus pin, and the server's store has exactly the fragments and the
// storage footprint it had before the first of them.
func TestServerConstructingRequestsLeaveStoreAlone(t *testing.T) {
	srv := NewServer()
	store := srv.Engine().Store
	for uri, doc := range map[string]string{"xmark.xml": xmark.GenerateString(difftest.GoldenSF), "r.xml": corpus.ConstructorDoc} {
		if _, err := store.LoadDocumentString(uri, doc); err != nil {
			t.Fatal(err)
		}
	}
	type request struct {
		req       engine.QueryRequest
		prog      string // the compiled plan as MIL
		want, err string
	}
	var reqs []request
	add := func(query, doc, want, wantErr string) {
		r := request{req: engine.QueryRequest{Query: query, ContextDoc: doc}, want: want, err: wantErr}
		plan, _, err := core.CompileQuery(query, xqcore.Options{ContextDoc: doc})
		if err != nil {
			t.Fatal(err)
		}
		if r.prog, err = Emit(plan); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	for _, n := range []int{8, 9, 10} {
		add(xmark.Query(n), "xmark.xml", difftest.Golden(t, n), "")
	}
	for _, c := range corpus.Constructors {
		add(c.Query, "r.xml", c.Want, c.Err)
	}

	frags, report := store.FragCount(), store.Report()
	for i := 0; i < 500; i++ {
		r := reqs[i%len(reqs)]
		var got string
		var err error
		if i%2 == 0 {
			got, err = srv.Exec(r.prog)
		} else {
			got, err = srv.execQuery(context.Background(), nil, r.req)
		}
		switch {
		case r.err != "" && (err == nil || !strings.Contains(err.Error(), r.err)):
			t.Fatalf("request %d %.60q: err %v, want one naming %s", i, r.req.Query, err, r.err)
		case r.err == "" && (err != nil || got != r.want):
			t.Fatalf("request %d %.60q: err %v\n got  %.200q\n want %.200q", i, r.req.Query, err, got, r.want)
		}
	}
	if got := store.FragCount(); got != frags {
		t.Errorf("store holds %d fragments after the requests, %d before", got, frags)
	}
	if got := store.Report(); got != report {
		t.Errorf("store report %+v after the requests, %+v before", got, report)
	}
}
