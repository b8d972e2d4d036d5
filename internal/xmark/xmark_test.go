package xmark

import (
	"strings"
	"testing"

	"pathfinder/internal/core"
	"pathfinder/internal/navdom"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xqcore"
)

const testSF = 0.002

func TestCountsScaleLinearly(t *testing.T) {
	small := CountsFor(0.1)
	large := CountsFor(1.0)
	if large.Items != 21750 || large.People != 25500 || large.Open != 12000 ||
		large.Closed != 9750 || large.Categories != 1000 {
		t.Errorf("SF1 counts = %+v", large)
	}
	if small.Items != 2175 {
		t.Errorf("SF0.1 items = %d", small.Items)
	}
	tiny := CountsFor(0.0001)
	if tiny.People < 60 || tiny.Items < 36 {
		t.Errorf("floors not applied: %+v", tiny)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := GenerateString(testSF)
	b := GenerateString(testSF)
	if a != b {
		t.Fatal("generator is not deterministic")
	}
	if len(a) < 10_000 {
		t.Fatalf("document too small: %d bytes", len(a))
	}
}

func TestGeneratedDocumentParses(t *testing.T) {
	doc := GenerateString(testSF)
	store := xenc.NewStore()
	ref, err := store.LoadDocumentString("xmark.xml", doc)
	if err != nil {
		t.Fatalf("shred: %v", err)
	}
	if err := store.Frag(ref.Frag).Validate(); err != nil {
		t.Fatalf("encoding invariants: %v", err)
	}
	db := navdom.NewDB()
	if _, err := db.LoadString("xmark.xml", doc); err != nil {
		t.Fatalf("DOM parse: %v", err)
	}
}

func TestGeneratedStructureSupportsQueries(t *testing.T) {
	doc := GenerateString(testSF)
	for _, marker := range []string{
		`id="person0"`, `id="item0"`, `id="category0"`, `id="open_auction0"`,
		"<regions>", "<australia>", "<europe>", "<closed_auctions>",
		"<bidder>", "<increase>", "<profile", "income=", "<homepage>",
		"<parlist><listitem><parlist><listitem><text><emph><keyword>",
		"<itemref item=", "<buyer person=", "<interest category=",
		"<catgraph>", "<edge from=",
	} {
		if !strings.Contains(doc, marker) {
			t.Errorf("generated document lacks %q", marker)
		}
	}
}

func TestDocumentSizeScalesLinearly(t *testing.T) {
	// Above the entity floors, document bytes grow linearly with the
	// scale factor (a factor-10 SF step gives roughly 10x the bytes).
	small := len(GenerateString(0.02))
	large := len(GenerateString(0.2))
	ratio := float64(large) / float64(small)
	if ratio < 7 || ratio > 13 {
		t.Errorf("size ratio across one decade = %.1f (want ≈10)", ratio)
	}
}

func TestAllTwentyQueriesPresent(t *testing.T) {
	for n := 1; n <= NumQueries; n++ {
		if Query(n) == "" {
			t.Errorf("query %d missing", n)
		}
	}
}

// TestJoinQueriesAreRecognized asserts the compiler's join recognition
// fires for the join queries the paper highlights (Q8–Q12).
func TestJoinQueriesAreRecognized(t *testing.T) {
	opt := xqcore.Options{ContextDoc: "xmark.xml"}
	wantEqui := map[int]int{8: 1, 9: 2, 10: 1}
	wantTheta := map[int]int{11: 1, 12: 1}
	for n := range wantEqui {
		coreExpr, err := xqcore.NormalizeExpr(Query(n), opt)
		if err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		_, stats, err := core.CompileWithStats(coreExpr)
		if err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		if stats.EquiJoins < wantEqui[n] {
			t.Errorf("Q%d: equi-joins = %d, want >= %d (stats %+v)", n, stats.EquiJoins, wantEqui[n], stats)
		}
	}
	for n := range wantTheta {
		coreExpr, err := xqcore.NormalizeExpr(Query(n), opt)
		if err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		_, stats, err := core.CompileWithStats(coreExpr)
		if err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		if stats.ThetaJoins < wantTheta[n] {
			t.Errorf("Q%d: theta-joins = %d, want >= %d (stats %+v)", n, stats.ThetaJoins, wantTheta[n], stats)
		}
	}
}

func TestStorageOverheadBand(t *testing.T) {
	// §3.1: the encoding costs on the order of the serialized document
	// (the paper reports 125–147% for small instances). Our generator and
	// pools land in a broadly similar band; assert sane bounds.
	doc := GenerateString(0.005)
	store := xenc.NewStore()
	if _, err := store.LoadDocumentString("xmark.xml", doc); err != nil {
		t.Fatal(err)
	}
	rep := store.Report()
	ratio := float64(rep.Total()) / float64(len(doc))
	if ratio < 0.3 || ratio > 3.0 {
		t.Errorf("storage ratio = %.2f, outside sane band", ratio)
	}
	if rep.Nodes == 0 || rep.Attrs == 0 {
		t.Error("empty report")
	}
}
