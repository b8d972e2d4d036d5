package service_test

import (
	"context"
	"runtime"
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

// constructing is one request that builds elements — as query text and
// as the MIL program of its plan — and what it must answer: XMark
// q08–q10 against their goldens, the constructor corpus against its
// pinned results and errors.
type constructing struct {
	query, doc, prog string
	want, err        string
}

func constructingCases(t *testing.T) []constructing {
	t.Helper()
	var cases []constructing
	add := func(c constructing) {
		plan, _, err := core.CompileQuery(c.query, xqcore.Options{ContextDoc: c.doc})
		if err != nil {
			t.Fatal(err)
		}
		if c.prog, err = mil.Emit(plan); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, c)
	}
	for _, n := range []int{8, 9, 10} {
		add(constructing{query: xmark.Query(n), doc: "xmark.xml", want: difftest.Golden(t, n)})
	}
	for _, c := range corpus.Constructors {
		add(constructing{query: c.Query, doc: "r.xml", want: c.Want, err: c.Err})
	}
	return cases
}

// constructingStore holds the documents the constructing cases read.
func constructingStore(t *testing.T) *xenc.Store {
	t.Helper()
	store := xenc.NewStore()
	for uri, doc := range map[string]string{"xmark.xml": xmark.GenerateString(difftest.GoldenSF), "r.xml": corpus.ConstructorDoc} {
		if _, err := store.LoadDocumentString(uri, doc); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// TestConstructingRequestsLeaveStoreAlone: 500 requests that construct —
// plain, explained, and every third shipped as a MIL program — answer
// byte for byte what the goldens pin, and the shared store has exactly
// the fragments and the storage footprint it had before the first of
// them.
func TestConstructingRequestsLeaveStoreAlone(t *testing.T) {
	store := constructingStore(t)
	frags, report := store.FragCount(), store.Report()
	svc := service.New(store, service.Config{})
	cases := constructingCases(t)
	for i := 0; i < 500; i++ {
		c := cases[i%len(cases)]
		req := service.Request{Query: c.query, ContextDoc: c.doc, Explain: i%3 == 1}
		if i%3 == 2 {
			req = service.Request{Query: c.prog, MIL: true}
		}
		resp, err := svc.Query(context.Background(), req)
		switch {
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Fatalf("request %d %.60q: err %v, want one naming %s", i, c.query, err, c.err)
		case c.err == "" && err != nil:
			t.Fatalf("request %d %.60q: %v", i, c.query, err)
		case c.err == "" && resp.Result != c.want:
			t.Fatalf("request %d %.60q:\n got  %.200q\n want %.200q", i, c.query, resp.Result, c.want)
		}
	}
	if got := store.FragCount(); got != frags {
		t.Errorf("store holds %d fragments after the requests, %d before", got, frags)
	}
	if got := store.Report(); got != report {
		t.Errorf("store report %+v after the requests, %+v before", got, report)
	}
}

// TestConstructingRequestsHeapIsFlat: the live heap after a collection
// does not grow with the number of constructing requests served — what a
// request constructs goes when its reply has been serialized.
func TestConstructingRequestsHeapIsFlat(t *testing.T) {
	store := constructingStore(t)
	svc := service.New(store, service.Config{})
	q10 := xmark.Query(10)
	serve := func(n int) uint64 {
		for i := 0; i < n; i++ {
			if _, err := svc.Query(context.Background(), service.Request{Query: q10, ContextDoc: "xmark.xml"}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(svc)
		return ms.HeapAlloc
	}
	warm := serve(20)
	served := serve(200)
	// Each Q10 reply at this scale constructs about 100 KB of fragments
	// and strings; kept in the shared store, 200 of them add 20 MB.
	const slack = 1 << 20
	if served > warm+slack {
		t.Errorf("live heap grew from %d to %d bytes over 200 constructing requests", warm, served)
	}
	t.Logf("live heap %d bytes after 20 requests, %d after 220", warm, served)
}
