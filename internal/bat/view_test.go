package bat

import (
	"sync"
	"testing"
)

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
	p, err := v.Project("x:item")
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
	if _, err := v.Project("missing"); err == nil {
		t.Error("projecting a missing column must fail")
	}
}

func TestViewMaterializeConcurrent(t *testing.T) {
	base := viewFixture()
	v := NewView(base, []int32{0, 2})
	var wg sync.WaitGroup
	got := make([]*Table, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = v.Materialize()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent Materialize produced distinct tables")
		}
	}
}
