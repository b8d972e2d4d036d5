package service

// Regression tier for the prepared-statement cache under collection
// re-persists: the cache key carries (collection, generation), so a PUT
// must both miss the cache on the next request and drop the stale
// entries with their lowered plans — a cached plan compiled against
// generation N must never serve generation N+1, whose tag surrogates may
// differ.

import (
	"context"
	"strings"
	"testing"

	"pathfinder/internal/engine"
	"pathfinder/internal/pfstore"
	"pathfinder/internal/xenc"
)

func newCatalogService(t *testing.T) *Service {
	t.Helper()
	cat, err := pfstore.OpenCatalog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return New(xenc.NewStore(), Config{
		Engine:  engine.Config{Check: true},
		Catalog: cat,
	})
}

func TestRepersistInvalidatesCachedPlans(t *testing.T) {
	s := newCatalogService(t)
	ctx := context.Background()
	put := func(doc string) {
		t.Helper()
		if _, err := s.PutDocument("c", "d.xml", strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
	run := func(q string) *Response {
		t.Helper()
		resp, err := s.Query(ctx, Request{Query: q, Collection: "c"})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	put(`<team><member>Ada</member><member>Grace</member></team>`)
	const q = `count(//member)`

	if resp := run(q); resp.Stats.CachedPlan || resp.Result != "2" {
		t.Fatalf("first run: cached=%v result=%q, want fresh plan, 2", resp.Stats.CachedPlan, resp.Result)
	}
	if resp := run(q); !resp.Stats.CachedPlan {
		t.Fatal("second run should hit the prepared cache")
	}
	if n := s.Stats().PreparedPlans; n != 1 {
		t.Fatalf("prepared plans = %d, want 1", n)
	}
	keys := s.preparedKeys()
	if len(keys) != 1 || keys[0].Collection != "c" || keys[0].Generation != 1 {
		t.Fatalf("cache keys = %+v, want one entry for (c, gen 1)", keys)
	}

	// Re-persist: the member elements disappear, so a stale plan whose
	// surrogates resolved against generation 1 would return garbage.
	put(`<team><lead>Ada</lead></team>`)

	if got := s.preparedKeys(); len(got) != 0 {
		t.Fatalf("cache keys after re-persist = %+v, want none", got)
	}
	if n := s.Stats().PreparedPlans; n != 0 {
		t.Fatalf("prepared plans after re-persist = %d, want 0", n)
	}
	if resp := run(q); resp.Stats.CachedPlan || resp.Result != "0" {
		t.Fatalf("post-re-persist run: cached=%v result=%q, want fresh plan, 0", resp.Stats.CachedPlan, resp.Result)
	}
	if resp := run(`count(//lead)`); resp.Result != "1" {
		t.Fatalf("new content query = %q, want 1", resp.Result)
	}
	keys = s.preparedKeys()
	for _, k := range keys {
		if k.Generation != 2 {
			t.Errorf("stale-generation key survived: %+v", k)
		}
	}

	// Default-store requests (no collection) are keyed separately and
	// survive collection churn.
	if _, err := s.Engine().Store.LoadDocumentString("base.xml", `<base/>`); err != nil {
		t.Fatal(err)
	}
	if resp, err := s.Query(ctx, Request{Query: `count(doc("base.xml"))`}); err != nil || resp.Result != "1" {
		t.Fatalf("default-store query: %v %+v", err, resp)
	}
	put(`<team/>`)
	// Only the collection's plans went; the default-store entry survives.
	keys = s.preparedKeys()
	if len(keys) != 1 || keys[0].Collection != "" {
		t.Errorf("cache keys after final put = %+v, want only the default-store entry", keys)
	}
}

// TestQueryRequestKey pins the key derivation: context doc only matters for
// default-store requests, generation always separates snapshots, and a
// MIL program keys as shipped, apart from an XQuery of the same text.
func TestQueryRequestKey(t *testing.T) {
	base := Request{Query: "q", Collection: "c", ContextDoc: "ignored.xml"}
	k1 := base.key(1)
	if k1.ContextDoc != "" {
		t.Error("collection request must drop the context doc from the key")
	}
	if k2 := base.key(2); k1 == k2 {
		t.Error("generations must not collide")
	}
	d := Request{Query: "q", ContextDoc: "a.xml"}
	if d.key(0).ContextDoc != "a.xml" {
		t.Error("default-store request must keep the context doc in the key")
	}
	xq, prog := Request{Query: "1  +  1"}, Request{Query: "1  +  1", MIL: true}
	if xq.key(0).Query != "1 + 1" || prog.key(0).Query != prog.Query {
		t.Errorf("keys %+v / %+v: XQuery must be normalized, MIL kept verbatim", xq.key(0), prog.key(0))
	}
	if xq.key(0) == (Request{Query: "1 + 1", MIL: true}).key(0) {
		t.Error("a MIL program must not share an XQuery's key")
	}
}
