package mil_test

// The wire protocol against the server pfserver builds: a service's
// NewMILServer, whose sessions compile, cache and run what the
// connections ship.

import (
	"fmt"
	"math"
	"net"
	"strings"
	"testing"

	"pathfinder/internal/core"
	"pathfinder/internal/corpus"
	"pathfinder/internal/difftest"
	"pathfinder/internal/mil"
	"pathfinder/internal/service"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

// serve puts a service over store behind a MIL server on a loopback
// port, closed when t ends, and returns the address.
func serve(t *testing.T, store *xenc.Store) string {
	t.Helper()
	srv := service.New(store, service.Config{}).NewMILServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck — returns when the server closes
	t.Cleanup(srv.Close)
	return l.Addr().String()
}

func dial(t *testing.T, addr string) *mil.Client {
	t.Helper()
	c, err := mil.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// program compiles an XQuery to the MIL text pfshell would ship.
func program(t *testing.T, query string) string {
	t.Helper()
	plan, _, err := core.CompileQuery(query, xqcore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := mil.Emit(plan)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestServerProtocol(t *testing.T) {
	c := dial(t, serve(t, xenc.NewStore()))

	if err := c.Load("tiny.xml", `<a><b>x</b></a>`); err != nil {
		t.Fatalf("LOAD: %v", err)
	}
	if err := c.Load("tiny.xml", `<a/>`); err == nil {
		t.Error("duplicate LOAD must fail")
	}
	if _, err := c.Gen("xmark.xml", 0.001); err != nil {
		t.Fatalf("GEN: %v", err)
	}

	out, err := c.ExecMIL(program(t, `count(doc("xmark.xml")//person)`))
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

// TestServerGenBounded: GEN refuses a scale factor that is not a finite
// positive number or whose instance would exceed the LOAD limit, before
// generating anything; an in-limit GEN of the same name still works.
func TestServerGenBounded(t *testing.T) {
	c := dial(t, serve(t, xenc.NewStore()))
	before, err := c.Storage()
	if err != nil {
		t.Fatal(err)
	}
	for _, sf := range []float64{1e6, math.NaN(), math.Inf(1), math.Inf(-1), 0} {
		if _, err := c.Gen("x.xml", sf); err == nil {
			t.Errorf("GEN x.xml %g succeeded, want ERR", sf)
		}
	}
	if after, err := c.Storage(); err != nil || after != before {
		t.Fatalf("storage after refused GENs = %q, %v; before %q", after, err, before)
	}
	if _, err := c.Gen("x.xml", 0.001); err != nil {
		t.Fatalf("in-limit GEN: %v", err)
	}
}

// TestServerRejectsOversizedPayload: a declared byte count above the
// payload limit is refused before any allocation — one line must not be
// able to force a multi-GB make([]byte, n) — and the connection closes,
// since the unread payload leaves the framing unrecoverable.
func TestServerRejectsOversizedPayload(t *testing.T) {
	addr := serve(t, xenc.NewStore())
	for _, line := range []string{"MIL 9999999999\n", "XQ 2097152 d\n", "LOAD u 999999999999\n"} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c := mil.NewClient(conn)
		if _, err := c.RoundTrip(line, nil); err == nil ||
			!strings.Contains(err.Error(), "exceeds limit") {
			t.Errorf("%q: want payload-limit ERR, got %v", strings.TrimSpace(line), err)
		}
		// The server closed the broken connection; the next read sees EOF.
		if _, err := c.RoundTrip("STORAGE\n", nil); err == nil {
			t.Errorf("%q: connection stayed open after framing break", strings.TrimSpace(line))
		}
		conn.Close()
	}

	// In-limit payloads on a fresh connection still work.
	if err := dial(t, addr).Load("ok.xml", "<a/>"); err != nil {
		t.Fatalf("in-limit LOAD after rejections: %v", err)
	}
}

// TestServerConcurrentClients hammers one server from several
// connections shipping one constructing program: every reply is right
// while the requests share the prepared plan and construct side by side.
func TestServerConcurrentClients(t *testing.T) {
	store := xenc.NewStore()
	if _, err := store.LoadDocumentString("xmark.xml", xmark.GenerateString(0.001)); err != nil {
		t.Fatal(err)
	}
	addr := serve(t, store)
	prog := program(t, `<r>{count(doc("xmark.xml")//person)}</r>`)
	const workers, rounds = 8, 10
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			c, err := mil.Dial(addr)
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

// TestServerConstructingRequestsLeaveStoreAlone: 500 constructing requests
// over the wire — every other one a shipped MIL program, the rest XQuery
// text the server compiles — answer what the goldens and the constructor
// corpus pin, and the server's store has exactly the fragments and the
// storage footprint it had before the first of them.
func TestServerConstructingRequestsLeaveStoreAlone(t *testing.T) {
	store := xenc.NewStore()
	for uri, doc := range map[string]string{"xmark.xml": xmark.GenerateString(difftest.GoldenSF), "r.xml": corpus.ConstructorDoc} {
		if _, err := store.LoadDocumentString(uri, doc); err != nil {
			t.Fatal(err)
		}
	}
	type request struct {
		query, doc, prog string
		want, err        string
	}
	var reqs []request
	add := func(r request) {
		plan, _, err := core.CompileQuery(r.query, xqcore.Options{ContextDoc: r.doc})
		if err != nil {
			t.Fatal(err)
		}
		if r.prog, err = mil.Emit(plan); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	for _, n := range []int{8, 9, 10} {
		add(request{query: xmark.Query(n), doc: "xmark.xml", want: difftest.Golden(t, n)})
	}
	for _, c := range corpus.Constructors {
		add(request{query: c.Query, doc: "r.xml", want: c.Want, err: c.Err})
	}

	c := dial(t, serve(t, store))
	frags, report := store.FragCount(), store.Report()
	for i := 0; i < 500; i++ {
		r := reqs[i%len(reqs)]
		var got string
		var err error
		if i%2 == 0 {
			got, err = c.ExecMIL(r.prog)
		} else {
			got, err = c.ExecXQ(r.query, r.doc)
		}
		switch {
		case r.err != "" && (err == nil || !strings.Contains(err.Error(), r.err)):
			t.Fatalf("request %d %.60q: err %v, want one naming %s", i, r.query, err, r.err)
		case r.err == "" && (err != nil || got != r.want):
			t.Fatalf("request %d %.60q: err %v\n got  %.200q\n want %.200q", i, r.query, err, got, r.want)
		}
	}
	if got := store.FragCount(); got != frags {
		t.Errorf("store holds %d fragments after the requests, %d before", got, frags)
	}
	if got := store.Report(); got != report {
		t.Errorf("store report %+v after the requests, %+v before", got, report)
	}
}
