package service_test

// Service-path differential tier (the point of the service: every front
// door returns the same bytes as the embedded engine). The front doors —
// the HTTP JSON endpoint, the HTTP text endpoint and the TCP XQ command,
// plus plans shipped over the TCP MIL command — are evaluators for the
// runner (internal/difftest): XMark q01–q20 run against the pinned
// goldens, the Table 2 dialect corpus against the embedded engine, at one
// worker and at eight, with the engine's runtime invariant checks on.
// The three query-text doors share one service, so the second and third
// re-run the plan the first one prepared.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"pathfinder/internal/corpus"
	"pathfinder/internal/difftest"
	"pathfinder/internal/engine"
	"pathfinder/internal/mil"
	"pathfinder/internal/service"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

var auctionDocs = []difftest.Doc{{URI: "auction.xml", Text: corpus.AuctionDoc}}

type harness struct {
	svc     *service.Service
	httpSrv *httptest.Server
	milSrv  *mil.Server
	tcpAddr string
	tcp     *mil.Client // dialled on first use by the tcp-xq door
}

func newHarness(t testing.TB, workers int, docs []difftest.Doc) *harness {
	t.Helper()
	store := difftest.LoadEngine(t, engine.Config{}, docs).Store
	return serve(t, service.New(store, service.Config{
		Engine: engine.Config{Workers: workers, Check: true},
	}))
}

// serve puts svc behind both front doors, closed when t ends.
func serve(t testing.TB, svc *service.Service) *harness {
	t.Helper()
	hs := httptest.NewServer(svc.Handler())
	t.Cleanup(hs.Close)
	milSrv := svc.NewMILServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go milSrv.Serve(l) //nolint:errcheck — closed via t.Cleanup
	t.Cleanup(milSrv.Close)
	return &harness{svc: svc, httpSrv: hs, milSrv: milSrv, tcpAddr: l.Addr().String()}
}

// postJSON drives POST /query with body; on 200 it returns the result
// field.
func (h *harness) postJSON(t testing.TB, body map[string]any) (int, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(h.httpSrv.URL+"/query", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if raw, err = io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, string(raw)
	}
	var out struct {
		Result string `json:"result"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("bad JSON response %q: %v", raw, err)
	}
	return resp.StatusCode, out.Result
}

// queryText drives POST /query/text; binding is the URL's query string
// ("doc=…" or "collection=…"), if any.
func (h *harness) queryText(t testing.TB, query, binding string) (int, string) {
	t.Helper()
	url := h.httpSrv.URL + "/query/text"
	if binding != "" {
		url += "?" + binding
	}
	resp, err := http.Post(url, "application/xquery", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

func (h *harness) dialTCP(t testing.TB) *mil.Client {
	t.Helper()
	c, err := mil.Dial(h.tcpAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// reply turns an HTTP status and body into an evaluator's outcome.
func reply(code int, body string) (string, error) {
	if code != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", code, body)
	}
	return body, nil
}

// doors are the service's three ways in for a query text.
var doors = []struct {
	name string
	ask  func(t testing.TB, h *harness, req engine.QueryRequest) (string, error)
}{
	{"http-json", func(t testing.TB, h *harness, req engine.QueryRequest) (string, error) {
		return reply(h.postJSON(t, map[string]any{"query": req.Query, "doc": req.ContextDoc, "collection": req.Collection}))
	}},
	{"http-text", func(t testing.TB, h *harness, req engine.QueryRequest) (string, error) {
		binding := "doc=" + req.ContextDoc
		if req.Collection != "" {
			binding = "collection=" + req.Collection
		}
		return reply(h.queryText(t, req.Query, binding))
	}},
	{"tcp-xq", func(t testing.TB, h *harness, req engine.QueryRequest) (string, error) {
		if h.tcp == nil {
			h.tcp = h.dialTCP(t)
		}
		return h.tcp.ExecXQReq(req)
	}},
}

// frontDoors makes one evaluator per door, all of them over the one
// service open builds from the matrix's documents: the first door
// prepares each query, and the others re-run the plan it cached. A
// request names collection when it is set, the context document
// otherwise. reused fails t unless the doors after the first answered
// each of n cases from the prepared-plan cache.
func frontDoors(label string, open func(testing.TB, []difftest.Doc) *harness, collection string) (evals []difftest.Evaluator, reused func(t testing.TB, n int)) {
	var h *harness
	var opened []difftest.Doc
	for _, d := range doors {
		evals = append(evals, difftest.Evaluator{Name: d.name + " " + label, Family: difftest.Foreign, Text: true,
			Run: func(t testing.TB, docs []difftest.Doc) difftest.Eval {
				if h == nil || !slices.Equal(docs, opened) {
					h, opened = open(t, docs), docs
				}
				h := h
				return func(q difftest.Query) (string, error) {
					req := engine.QueryRequest{Query: q.Src, ContextDoc: q.Opts.ContextDoc}
					if collection != "" {
						req = engine.QueryRequest{Query: q.Src, Collection: collection}
					}
					return d.ask(t, h, req)
				}
			}})
	}
	return evals, func(t testing.TB, n int) {
		t.Helper()
		if hits, want := h.svc.Stats().Queries.CacheHits, int64(n*(len(doors)-1)); hits < want {
			t.Errorf("%s: %d prepared-plan cache hits over %d cases, want ≥ %d", label, hits, n, want)
		}
	}
}

// served is frontDoors over a service holding the documents in its store.
func served(workers int) ([]difftest.Evaluator, func(testing.TB, int)) {
	return frontDoors(fmt.Sprintf("workers=%d", workers), func(t testing.TB, docs []difftest.Doc) *harness {
		return newHarness(t, workers, docs)
	}, "")
}

// embedded is the reference: the embedded engine, no service in sight.
func embedded(workers int) difftest.Evaluator {
	return difftest.Engine(fmt.Sprintf("embedded workers=%d", workers), engine.Config{Workers: workers, Check: true})
}

// TestServiceXMarkGolden: all twenty XMark queries through all three
// doors, byte-compared against the pinned goldens.
func TestServiceXMarkGolden(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			doors, reused := served(workers)
			m := difftest.Matrix{Docs: difftest.XMarkDocs(), Evals: doors}
			m.Run(t, difftest.XMark(t))
			reused(t, xmark.NumQueries)
		})
	}
}

// TestServiceDialectDifferential: the Table 2 corpus through all three
// doors against the embedded engine.
func TestServiceDialectDifferential(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cases := difftest.Agree("dialect", corpus.Dialect)
			doors, reused := served(workers)
			m := difftest.Matrix{Docs: auctionDocs, Evals: append([]difftest.Evaluator{embedded(workers)}, doors...)}
			difftest.NoErrors(t, cases, m.Run(t, cases))
			reused(t, len(cases))
		})
	}
}

// TestServiceStreamBoundary: corpus.StreamBoundary through all three
// doors and as MIL programs shipped over TCP: the trees the service
// writes straight into its replies, and the content errors they raise
// before any byte of one, are the embedded engine's.
func TestServiceStreamBoundary(t *testing.T) {
	docs := []difftest.Doc{{URI: "r.xml", Text: corpus.ConstructorDoc}}
	cases := corpus.Cases(corpus.StreamBoundary)
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			doors, reused := served(workers)
			m := difftest.Matrix{Docs: docs, Evals: append([]difftest.Evaluator{embedded(workers)}, doors...)}
			m.Run(t, cases)
			reused(t, len(cases))
		})
	}
	difftest.Matrix{Docs: docs, Evals: []difftest.Evaluator{embedded(8), milShipped}}.Run(t, cases)
}

// TestServiceStepPredicates: corpus.StepPredicates through all three
// doors and as MIL programs shipped over TCP.
func TestServiceStepPredicates(t *testing.T) {
	docs := []difftest.Doc{{URI: "sp.xml", Text: corpus.StepPredicatesDoc}}
	doors, reused := served(8)
	m := difftest.Matrix{Docs: docs, Evals: append([]difftest.Evaluator{embedded(8), milShipped}, doors...)}
	m.Run(t, corpus.StepPredicates)
	// A query rejected at compile time is never prepared: it has no plan
	// to reuse.
	prepared := 0
	for _, c := range corpus.StepPredicates {
		if _, err := difftest.Compile(c.Query, xqcore.Options{}, difftest.Plain); err == nil {
			prepared++
		}
	}
	reused(t, prepared)
}

// milShipped sends each plan as a MIL program over the TCP MIL command
// (the paper's §4 setup): the service re-validates and admits it.
var milShipped = difftest.Evaluator{Name: "tcp-mil workers=8", Family: difftest.Foreign,
	Run: func(t testing.TB, docs []difftest.Doc) difftest.Eval {
		tcp := newHarness(t, 8, docs).dialTCP(t)
		return func(q difftest.Query) (string, error) {
			program, err := mil.Emit(q.Plan)
			if err != nil {
				return "", err
			}
			return tcp.ExecMIL(program)
		}
	}}

// TestServiceMILDifferential: plans shipped over the wire match the
// embedded engine through the service's admission path too.
func TestServiceMILDifferential(t *testing.T) {
	cases := difftest.Agree("dialect", corpus.Dialect)
	m := difftest.Matrix{Docs: auctionDocs, Evals: []difftest.Evaluator{embedded(8), milShipped}}
	difftest.NoErrors(t, cases, m.Run(t, cases))
}

// TestMILProgramCached: a program shipped twice over the TCP MIL command
// is prepared once — the second shipment is a prepared-plan cache hit,
// and the cache holds the program's entry.
func TestMILProgramCached(t *testing.T) {
	h := newHarness(t, 1, auctionDocs)
	plan, err := difftest.Compile(`count(doc("auction.xml")//person)`, xqcore.Options{}, difftest.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	program, err := mil.Emit(plan)
	if err != nil {
		t.Fatal(err)
	}
	tcp := h.dialTCP(t)
	before := h.svc.Stats()
	var outs [2]string
	for i := range outs {
		if outs[i], err = tcp.ExecMIL(program); err != nil {
			t.Fatal(err)
		}
	}
	after := h.svc.Stats()
	if outs[0] == "" || outs[0] != outs[1] {
		t.Errorf("replies %q and %q, want one non-empty answer twice", outs[0], outs[1])
	}
	if hits := after.Queries.CacheHits - before.Queries.CacheHits; hits != 1 {
		t.Errorf("plan_cache_hits rose by %d, want 1", hits)
	}
	if misses := after.Queries.CacheMisses - before.Queries.CacheMisses; misses != 1 {
		t.Errorf("plan_cache_misses rose by %d, want 1", misses)
	}
	if n := after.PreparedPlans - before.PreparedPlans; n != 1 {
		t.Errorf("prepared_plans rose by %d, want 1", n)
	}
}
