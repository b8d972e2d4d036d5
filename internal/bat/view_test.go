package bat

import "testing"

func viewFixture() *Table {
	return MustTable(
		"iter", IntVec{1, 2, 3, 4},
		"item", StrVec{"a", "b", "c", "d"},
	)
}

func TestViewIdentity(t *testing.T) {
	base := viewFixture()
	v := NewView(base, nil)
	if v.Rows() != 4 || v.Index(2) != 2 {
		t.Fatalf("identity view rows=%d index(2)=%d", v.Rows(), v.Index(2))
	}
	if v.Materialized() {
		t.Error("unmaterialized view reports Materialized")
	}
	if got := v.Materialize(); got != base {
		t.Error("identity view must materialize to its base, no copy")
	}
	if !v.Materialized() {
		t.Error("Materialized must flip after Materialize")
	}
}

func TestViewSelection(t *testing.T) {
	base := viewFixture()
	v := NewView(base, []int32{3, 1})
	if v.Rows() != 2 || v.Index(0) != 3 || v.Index(1) != 1 {
		t.Fatalf("selection view rows=%d", v.Rows())
	}
	m := v.Materialize()
	if m.Rows() != 2 {
		t.Fatalf("materialized rows = %d", m.Rows())
	}
	if got := m.MustCol("item").ItemAt(0).S; got != "d" {
		t.Errorf("row 0 item = %q, want d", got)
	}
	if v.Materialize() != m {
		t.Error("Materialize must cache its result")
	}
	// An empty (but non-nil) selection is zero rows — nil means all rows.
	empty := NewView(base, []int32{})
	if empty.Rows() != 0 || empty.Materialize().Rows() != 0 {
		t.Error("empty selection must have zero rows")
	}
}

func TestViewOf(t *testing.T) {
	base := viewFixture()
	v := ViewOf(base)
	if !v.Materialized() || v.Materialize() != base || v.Rows() != 4 {
		t.Error("ViewOf must be a pre-materialized identity view")
	}
}

func TestViewProject(t *testing.T) {
	base := viewFixture()
	v := NewView(base, []int32{2, 0})
	p, err := v.Project(ProjPair{"x", "item"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Rows() != 2 {
		t.Fatalf("projected rows = %d", p.Rows())
	}
	m := p.Materialize()
	if got := m.MustCol("x").ItemAt(0).S; got != "c" {
		t.Errorf("projected row 0 = %q, want c", got)
	}
	if _, err := v.Project(ProjPair{"missing", "missing"}); err == nil {
		t.Error("projecting a missing column must fail")
	}
}

// TestViewMaterializeOnce: the gather happens once, and every consumer
// holding the view — through a pointer to it — gets the same table.
func TestViewMaterializeOnce(t *testing.T) {
	base := viewFixture()
	v := NewView(base, []int32{0, 2})
	consumers := []*View{&v, &v, &v}
	if v.Materialized() {
		t.Fatal("a selection view is materialized before anyone asked")
	}
	first := consumers[0].Materialize()
	for _, c := range consumers[1:] {
		if c.Materialize() != first {
			t.Fatal("Materialize gathered twice")
		}
	}
	if !v.Materialized() || first.Rows() != 2 {
		t.Fatalf("materialized %v, %d rows", v.Materialized(), first.Rows())
	}
}
