package pfstore_test

// Round-trip property tier: shred → Save → Open must be observationally
// identical to shred alone. The XMark q01–q20 goldens pinned under
// internal/engine/testdata and the Table 2 dialect corpus both run
// against a store that took a trip through the on-disk columnar format,
// byte-comparing every serialized result.

import (
	"path/filepath"
	"testing"

	"pathfinder/internal/corpus"
	"pathfinder/internal/difftest"
	"pathfinder/internal/engine"
	"pathfinder/internal/pfstore"
	"pathfinder/internal/physical"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xqcore"
)

// saveReopen round-trips a store through the file format.
func saveReopen(t testing.TB, store *xenc.Store, name string) *xenc.Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".pfc")
	if err := pfstore.Save(path, store, name, 1); err != nil {
		t.Fatalf("save: %v", err)
	}
	reopened, meta, err := pfstore.Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if meta.Collection != name || meta.Generation != 1 {
		t.Fatalf("meta = %+v, want collection %q gen 1", meta, name)
	}
	return reopened
}

// reopened runs each plan on an engine over a store that took the trip
// shred → Save → Open.
var reopened = difftest.Evaluator{Name: "reopened", Family: difftest.Relational,
	Run: func(tb testing.TB, docs []difftest.Doc) difftest.Eval {
		store := difftest.LoadEngine(tb, engine.Config{}, docs).Store
		e := engine.NewWithConfig(saveReopen(tb, store, "c"), difftest.CheckConfig)
		return difftest.OnEngine(e, physical.Lower)
	}}

// TestXMarkGoldenAfterReopen: all twenty XMark queries over a reopened
// store match the pinned goldens byte for byte — the persisted encoding
// is the same relational data the shredder produced.
func TestXMarkGoldenAfterReopen(t *testing.T) {
	m := difftest.Matrix{Docs: difftest.XMarkDocs(), Evals: []difftest.Evaluator{reopened}}
	m.Run(t, difftest.XMark(t))
}

// TestDialectCorpusReopenDifferential: every Table 2 corpus query returns
// identical bytes on a freshly shredded store and a reopened one —
// including the constructor queries, which extend the reopened store with
// new fragments at query time.
func TestDialectCorpusReopenDifferential(t *testing.T) {
	m := difftest.Matrix{
		Docs:  []difftest.Doc{{URI: "auction.xml", Text: corpus.AuctionDoc}},
		Evals: []difftest.Evaluator{difftest.Engine("fresh", difftest.CheckConfig), reopened},
	}
	m.Run(t, difftest.Agree("dialect", corpus.Dialect))
}

// TestStreamBoundaryReopened: corpus.StreamBoundary over a reopened
// store.
func TestStreamBoundaryReopened(t *testing.T) {
	m := difftest.Matrix{
		Docs:  []difftest.Doc{{URI: "r.xml", Text: corpus.ConstructorDoc}},
		Evals: []difftest.Evaluator{reopened},
	}
	m.Run(t, corpus.Cases(corpus.StreamBoundary))
}

// TestStepPredicatesReopened: corpus.StepPredicates over a reopened
// store.
func TestStepPredicatesReopened(t *testing.T) {
	m := difftest.Matrix{
		Docs:  []difftest.Doc{{URI: "sp.xml", Text: corpus.StepPredicatesDoc}},
		Evals: []difftest.Evaluator{reopened},
	}
	m.Run(t, corpus.StepPredicates)
}

// TestSaveSkipsStreamedFragments: a query whose trees only the
// serializer reads registers a streamed fragment on the store it runs
// on; saving that store writes an empty fragment in its place, so the
// reopened store has the same ids, answers the same, and holds nothing
// that needs an emitter.
func TestSaveSkipsStreamedFragments(t *testing.T) {
	docs := []difftest.Doc{{URI: "r.xml", Text: corpus.ConstructorDoc}}
	e := difftest.LoadEngine(t, engine.Config{}, docs)
	plan, err := difftest.Compile(`for $a in /r/a return <e n="{$a/@x}">{$a/text()}</e>`, xqcore.Options{ContextDoc: "r.xml"}, difftest.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	run := difftest.OnEngine(e, physical.Lower)
	want, err := run(difftest.Query{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Store.LoadDocumentString("later.xml", "<l/>"); err != nil {
		t.Fatal(err)
	}
	streamed := int32(e.Store.FragCount() - 2)
	if e.Store.Resolve(streamed) != nil {
		t.Fatalf("fragment %d is not the streamed one", streamed)
	}
	r := saveReopen(t, e.Store, "s")
	if r.FragCount() != e.Store.FragCount() {
		t.Fatalf("%d fragments reopened, want %d", r.FragCount(), e.Store.FragCount())
	}
	if f := r.Resolve(streamed); f == nil || f.NodeCount() != 0 {
		t.Errorf("the streamed fragment's place reopens as %v, want an empty fragment", f)
	}
	if doc, err := r.Doc("later.xml"); err != nil || r.Serialize(doc) != "<l/>" {
		t.Errorf("later.xml reopens as %v, %v", doc, err)
	}
	got, err := difftest.OnEngine(engine.NewWithConfig(r, engine.Config{}), physical.Lower)(difftest.Query{Plan: plan})
	if err != nil || got != want {
		t.Errorf("reopened store answers %q, %v; want %q", got, err, want)
	}
}

// TestReopenedStoreStringContent spot-checks content resolution paths the
// query tier may not fully cover: string values, attribute access, and
// surrogate lookups against the lazily indexed pools.
func TestReopenedStoreStringContent(t *testing.T) {
	fresh := xenc.NewStore()
	if _, err := fresh.LoadDocumentString("auction.xml", corpus.AuctionDoc); err != nil {
		t.Fatal(err)
	}
	reopened := saveReopen(t, fresh, "auction")

	fdoc, _ := fresh.Doc("auction.xml")
	rdoc, err := reopened.Doc("auction.xml")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reopened.StringValue(rdoc), fresh.StringValue(fdoc); got != want {
		t.Errorf("string value differs: %q vs %q", got, want)
	}
	if got, want := reopened.TagID("person"), fresh.TagID("person"); got != want {
		t.Errorf("TagID(person) = %d, want %d", got, want)
	}
	if reopened.TagID("no-such-tag") != -1 {
		t.Error("unknown tag should miss")
	}
	if got, want := reopened.AttrNameID("id"), fresh.AttrNameID("id"); got != want {
		t.Errorf("AttrNameID(id) = %d, want %d", got, want)
	}
}
