package pfstore_test

// Round-trip property tier: shred → Save → Open must be observationally
// identical to shred alone. The XMark q01–q20 goldens pinned under
// internal/engine/testdata and the Table 2 dialect corpus both run
// against a store that took a trip through the on-disk columnar format,
// byte-comparing every serialized result.

import (
	"fmt"
	"path/filepath"
	"testing"

	"pathfinder/internal/corpus"
	"pathfinder/internal/difftest"
	"pathfinder/internal/engine"
	"pathfinder/internal/pfstore"
	"pathfinder/internal/physical"
	"pathfinder/internal/xenc"
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
func reopened(workers int) difftest.Evaluator {
	return difftest.Evaluator{Name: fmt.Sprintf("reopened workers=%d", workers), Family: difftest.Relational,
		Run: func(tb testing.TB, docs []difftest.Doc) difftest.Eval {
			store := difftest.LoadEngine(tb, engine.Config{}, docs).Store
			e := engine.NewWithConfig(saveReopen(tb, store, "c"), engine.Config{Workers: workers, Check: true})
			return difftest.OnEngine(e, physical.Lower)
		}}
}

// TestXMarkGoldenAfterReopen: all twenty XMark queries over a reopened
// store match the pinned goldens byte for byte — the persisted encoding
// is the same relational data the shredder produced.
func TestXMarkGoldenAfterReopen(t *testing.T) {
	m := difftest.Matrix{Docs: difftest.XMarkDocs(), Evals: []difftest.Evaluator{reopened(4)}}
	m.Run(t, difftest.XMark(t))
}

// TestDialectCorpusReopenDifferential: every Table 2 corpus query returns
// identical bytes on a freshly shredded store and a reopened one —
// including the constructor queries, which extend the reopened store with
// new fragments at query time.
func TestDialectCorpusReopenDifferential(t *testing.T) {
	m := difftest.Matrix{
		Docs:  []difftest.Doc{{URI: "auction.xml", Text: corpus.AuctionDoc}},
		Evals: []difftest.Evaluator{difftest.Engine("fresh", difftest.SeqConfig), reopened(1)},
	}
	m.Run(t, difftest.Agree("dialect", corpus.Dialect))
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
