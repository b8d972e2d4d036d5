package service_test

// Collection-path tier: named collections persisted in a pfstore catalog
// served through every front door. The XMark goldens run against a
// collection that was persisted and reopened from disk (a second Catalog
// over the same directory, so the cached in-memory store cannot mask a
// format bug), and the /collections endpoints get a full lifecycle test.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pathfinder/internal/difftest"
	"pathfinder/internal/engine"
	"pathfinder/internal/pfstore"
	"pathfinder/internal/service"
	"pathfinder/internal/xenc"
)

// newCatalogHarness builds a service over an empty default store plus a
// catalog in dir, with both front doors listening.
func newCatalogHarness(t testing.TB, cat *pfstore.Catalog) *harness {
	t.Helper()
	return serve(t, service.New(xenc.NewStore(), service.Config{
		Engine:  engine.Config{Check: true},
		Catalog: cat,
	}))
}

// persistCollection shreds docs into a store and persists it as a named
// collection, returning a FRESH catalog over the directory so the serving
// process must reopen the file from disk rather than reuse the writer's
// cached store.
func persistCollection(t testing.TB, dir, name string, docs []difftest.Doc) *pfstore.Catalog {
	t.Helper()
	writer, err := pfstore.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Put(name, difftest.LoadEngine(t, engine.Config{}, docs).Store); err != nil {
		t.Fatal(err)
	}
	reader, err := pfstore.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	return reader
}

// TestServiceCollectionXMarkGolden: all twenty XMark queries over a
// persisted-and-reopened collection, through the HTTP JSON endpoint, the
// HTTP text endpoint, and the TCP XQ command, byte-compared to the
// pinned goldens. This is the reopen-without-re-shredding acceptance
// path: the serving process never saw the source XML.
func TestServiceCollectionXMarkGolden(t *testing.T) {
	reopened, reused := frontDoors("collection", func(t testing.TB, docs []difftest.Doc) *harness {
		return newCatalogHarness(t, persistCollection(t, t.TempDir(), "xmark", docs))
	}, "xmark")
	m := difftest.Matrix{Docs: difftest.XMarkDocs(), Evals: reopened}
	m.Run(t, difftest.XMark(t))
	reused(t, len(difftest.XMark(t)))
}

// TestCollectionsHTTPLifecycle: PUT creates and extends a collection,
// GET lists it, queries see each generation, DELETE removes it and
// subsequent queries 404.
func TestCollectionsHTTPLifecycle(t *testing.T) {
	cat, err := pfstore.OpenCatalog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := newCatalogHarness(t, cat)
	client := h.httpSrv.Client()

	do := func(method, path string, body string) (int, string) {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, h.httpSrv.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	// Create: first document.
	code, body := do(http.MethodPut, "/collections/crew?doc=a.xml", `<crew><member>Ada</member></crew>`)
	if code != http.StatusOK {
		t.Fatalf("PUT: status=%d body=%s", code, body)
	}
	var res struct {
		Name       string `json:"name"`
		Generation uint64 `json:"generation"`
		Documents  int    `json:"documents"`
	}
	if err := json.Unmarshal([]byte(body), &res); err != nil || res.Generation != 1 || res.Documents != 1 {
		t.Fatalf("PUT result = %s (err %v), want gen 1, 1 doc", body, err)
	}

	// Extend: second document bumps the generation and fans out.
	if code, body = do(http.MethodPut, "/collections/crew?doc=b.xml", `<crew><member>Grace</member></crew>`); code != http.StatusOK {
		t.Fatalf("PUT second doc: status=%d body=%s", code, body)
	}
	if code, got := h.postJSON(t, map[string]any{"query": `count(collection("crew")//member)`, "collection": "crew"}); code != http.StatusOK || got != "2" {
		t.Errorf("count over 2-doc collection: status=%d got=%q want 2", code, got)
	}
	// Absolute paths bind to the collection too.
	if code, got := h.postJSON(t, map[string]any{"query": `/crew/member/text()`, "collection": "crew"}); code != http.StatusOK || got != "AdaGrace" {
		t.Errorf("absolute path over collection: status=%d got=%q", code, got)
	}

	// Replace a document in place: same URI, new content.
	if code, body = do(http.MethodPut, "/collections/crew?doc=a.xml", `<crew/>`); code != http.StatusOK {
		t.Fatalf("PUT replace: status=%d body=%s", code, body)
	}
	if code, got := h.postJSON(t, map[string]any{"query": `count(collection("crew")//member)`, "collection": "crew"}); code != http.StatusOK || got != "1" {
		t.Errorf("count after replace: status=%d got=%q want 1", code, got)
	}

	// List.
	if code, body = do(http.MethodGet, "/collections", ""); code != http.StatusOK {
		t.Fatalf("GET /collections: status=%d", code)
	}
	var list struct {
		Collections []pfstore.CollectionInfo `json:"collections"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Collections) != 1 || list.Collections[0].Name != "crew" ||
		list.Collections[0].Generation != 3 || len(list.Collections[0].Documents) != 2 {
		t.Errorf("list = %+v, want crew gen 3 with 2 docs", list.Collections)
	}

	// Invalid names are rejected before touching the filesystem.
	if code, _ = do(http.MethodPut, "/collections/has%20space", `<x/>`); code != http.StatusBadRequest {
		t.Errorf("invalid name: status=%d, want 400", code)
	}

	// Delete, then queries and re-deletes 404.
	if code, _ = do(http.MethodDelete, "/collections/crew", ""); code != http.StatusOK {
		t.Fatalf("DELETE: status=%d", code)
	}
	if code, _ = do(http.MethodDelete, "/collections/crew", ""); code != http.StatusNotFound {
		t.Errorf("second DELETE: status=%d, want 404", code)
	}
	if code, _ := h.postJSON(t, map[string]any{"query": `1+1`, "collection": "crew"}); code != http.StatusNotFound {
		t.Errorf("query on deleted collection: status=%d, want 404", code)
	}
}

// TestCollectionWithoutCatalog: collection operations on a service with
// no catalog are 501, and collection-bound queries 404.
func TestCollectionWithoutCatalog(t *testing.T) {
	h := newHarness(t, 1, nil)
	req, _ := http.NewRequest(http.MethodPut, h.httpSrv.URL+"/collections/x", strings.NewReader("<a/>"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("PUT without catalog: status=%d, want 501", resp.StatusCode)
	}
	if code, _ := h.postJSON(t, map[string]any{"query": `1`, "collection": "nope"}); code != http.StatusNotFound {
		t.Errorf("collection query without catalog: status=%d, want 404", code)
	}
}

// TestDamagedCollectionIsServerError: a collection file that fails its
// header checks is a server-side fault (500), not a 404 — and because
// the catalog does not pin open failures, repairing the file lets the
// very next query succeed.
func TestDamagedCollectionIsServerError(t *testing.T) {
	dir := t.TempDir()
	cat, err := pfstore.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := newCatalogHarness(t, cat)

	if err := os.WriteFile(filepath.Join(dir, "hurt.pfc"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, body := h.postJSON(t, map[string]any{"query": `1+1`, "collection": "hurt"}); code != http.StatusInternalServerError {
		t.Errorf("damaged collection: status=%d body=%q, want 500", code, body)
	}
	if code, _ := h.postJSON(t, map[string]any{"query": `1+1`, "collection": "absent"}); code != http.StatusNotFound {
		t.Errorf("absent collection: status=%d, want 404", code)
	}

	// Repair on disk; the failed open must not be cached.
	store := xenc.NewStore()
	if _, err := store.LoadDocumentString("d.xml", `<ok/>`); err != nil {
		t.Fatal(err)
	}
	writer, err := pfstore.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Put("hurt", store); err != nil {
		t.Fatal(err)
	}
	if code, got := h.postJSON(t, map[string]any{"query": `count(collection("hurt"))`, "collection": "hurt"}); code != http.StatusOK || got != "1" {
		t.Errorf("after repair: status=%d got=%q, want 200/\"1\"", code, got)
	}
}

// TestPutDuringAttributeQueries: concurrent PutDocument on a collection
// while attribute-axis queries run against it — under -race this pins
// the clone path's no-reseal guarantee (adopting a live store's
// fragments must not rebuild their shared attribute offsets while
// in-flight queries read them).
func TestPutDuringAttributeQueries(t *testing.T) {
	dir := t.TempDir()
	cat, err := pfstore.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := newCatalogHarness(t, cat)

	doc := `<people><person id="p0" age="30"/><person id="p1" age="40"/></people>`
	if _, err := h.svc.PutDocument("crowd", "seed.xml", strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			uri := fmt.Sprintf("extra%d.xml", i%4)
			if _, err := h.svc.PutDocument("crowd", uri, strings.NewReader(doc)); err != nil {
				done <- fmt.Errorf("put %s: %w", uri, err)
				return
			}
		}
	}()

	ctx := context.Background()
	for i := 0; i < 50; i++ {
		resp, err := h.svc.Query(ctx, service.Request{
			Query:      `count(collection("crowd")//person/@id)`,
			Collection: "crowd",
		})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if n, convErr := strconv.Atoi(resp.Result); convErr != nil || n < 2 || n%2 != 0 {
			t.Fatalf("query %d: result %q, want a positive even count", i, resp.Result)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
