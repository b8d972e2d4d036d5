package bat

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestItemConstructorsAndKinds(t *testing.T) {
	cases := []struct {
		it   Item
		kind Kind
		str  string
	}{
		{Int(42), KInt, "42"},
		{Float(2.5), KFloat, "2.5"},
		{Float(3), KFloat, "3"},
		{Str("hi"), KStr, "hi"},
		{Bool(true), KBool, "true"},
		{Bool(false), KBool, "false"},
		{Untyped("7"), KUntyped, "7"},
		{Node(NodeRef{1, 9}), KNode, "#1.9"},
	}
	for _, c := range cases {
		if c.it.Kind != c.kind {
			t.Errorf("kind of %v: got %v want %v", c.it, c.it.Kind, c.kind)
		}
		if got := c.it.StringValue(); got != c.str {
			t.Errorf("StringValue(%v) = %q, want %q", c.it, got, c.str)
		}
	}
}

func TestItemAsFloat(t *testing.T) {
	if Int(3).AsFloat() != 3 {
		t.Error("Int(3).AsFloat() != 3")
	}
	if Untyped(" 4.5 ").AsFloat() != 4.5 {
		t.Error("untyped ' 4.5 ' should parse to 4.5")
	}
	if !math.IsNaN(Str("abc").AsFloat()) {
		t.Error("non-numeric string should convert to NaN")
	}
	if Bool(true).AsFloat() != 1 {
		t.Error("true should convert to 1")
	}
}

func TestItemAsInt(t *testing.T) {
	for _, c := range []struct {
		it   Item
		want int64
	}{
		{Int(7), 7}, {Float(7.9), 7}, {Untyped("12"), 12}, {Str("3.5"), 3},
	} {
		got, err := c.it.AsInt()
		if err != nil || got != c.want {
			t.Errorf("AsInt(%v) = %d, %v; want %d", c.it, got, err, c.want)
		}
	}
	if _, err := Str("xyz").AsInt(); err == nil {
		t.Error("AsInt on non-numeric string should error")
	}
}

func TestCompareNumericPromotion(t *testing.T) {
	// 5 eq 5.0 across int/double.
	if c, err := Compare(Int(5), Float(5)); err != nil || c != 0 {
		t.Errorf("Compare(5, 5.0) = %d, %v", c, err)
	}
	// Untyped vs numeric promotes to double (the XMark price comparisons).
	if c, err := Compare(Untyped("40.5"), Int(40)); err != nil || c != 1 {
		t.Errorf("Compare(uA 40.5, 40) = %d, %v", c, err)
	}
	// Untyped vs untyped with both numeric compares numerically.
	if c, err := Compare(Untyped("9"), Untyped("10")); err != nil || c != -1 {
		t.Errorf("Compare(uA 9, uA 10) = %d, %v; want -1 (numeric)", c, err)
	}
	// Untyped vs string compares as strings.
	if c, err := Compare(Untyped("9"), Str("10")); err != nil || c != 1 {
		t.Errorf("Compare(uA 9, '10') = %d, %v; want 1 (string order)", c, err)
	}
	if _, err := Compare(Str("x"), Int(1)); err == nil {
		t.Error("string vs int must be incomparable")
	}
	if _, err := Compare(Node(NodeRef{}), Int(1)); err == nil {
		t.Error("node operands must be rejected")
	}
}

func TestKeyUnifiesNumerics(t *testing.T) {
	if Int(5).Key() != Float(5).Key() {
		t.Error("5 and 5.0 must share a hash key")
	}
	if Int(5).Key() == Str("5").Key() {
		t.Error("5 and '5' must not share a hash key")
	}
	if Node(NodeRef{1, 2}).Key() == Node(NodeRef{2, 1}).Key() {
		t.Error("distinct nodes must not collide structurally")
	}
	if Untyped("a").Key() != Str("a").Key() {
		t.Error("untyped and string of same text should join")
	}
}

func TestNodeRefOrder(t *testing.T) {
	a, b := NodeRef{0, 5}, NodeRef{1, 0}
	if !a.Less(b) || b.Less(a) {
		t.Error("fragment order must dominate")
	}
	c := NodeRef{0, 6}
	if !a.Less(c) {
		t.Error("pre order within fragment")
	}
}

func TestVecGatherSliceRoundTrip(t *testing.T) {
	vecs := []Vec{
		IntVec{10, 20, 30, 40},
		FloatVec{1.5, 2.5, 3.5, 4.5},
		StrVec{"a", "b", "c", "d"},
		BoolVec{true, false, true, false},
		NodeVec{{0, 0}, {0, 1}, {1, 0}, {1, 1}},
		ItemVec{Int(1), Str("x"), Bool(true), Node(NodeRef{2, 3})},
	}
	for _, v := range vecs {
		g := v.Gather([]int32{3, 1})
		if g.Len() != 2 {
			t.Fatalf("%s: gather len %d", v.Type(), g.Len())
		}
		if !DeepEqual(g.ItemAt(0), v.ItemAt(3)) || !DeepEqual(g.ItemAt(1), v.ItemAt(1)) {
			t.Errorf("%s: gather content mismatch", v.Type())
		}
		s := v.Slice(1, 3)
		if s.Len() != 2 || !DeepEqual(s.ItemAt(0), v.ItemAt(1)) {
			t.Errorf("%s: slice content mismatch", v.Type())
		}
		b := v.New(2)
		b.AppendFrom(v, 2)
		b.AppendItem(v.ItemAt(0))
		built := b.Build()
		if built.Len() != 2 || !DeepEqual(built.ItemAt(0), v.ItemAt(2)) || !DeepEqual(built.ItemAt(1), v.ItemAt(0)) {
			t.Errorf("%s: builder mismatch", v.Type())
		}
	}
}

func TestBuilderCrossTypeAppendFrom(t *testing.T) {
	// Builders must accept rows from item-typed sources.
	src := ItemVec{Int(7)}
	b := IntVec(nil).New(1)
	b.AppendFrom(src, 0)
	if got := b.Build().(IntVec)[0]; got != 7 {
		t.Errorf("cross-type AppendFrom: got %d", got)
	}
}

func TestTableBasics(t *testing.T) {
	tb := MustTable("iter", IntVec{1, 1, 2}, "pos", IntVec{1, 2, 1}, "item", ItemVec{Int(10), Int(20), Int(30)})
	if tb.Rows() != 3 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	if !tb.HasCol("pos") || tb.HasCol("nope") {
		t.Error("HasCol misbehaves")
	}
	if _, err := tb.Col("nope"); err == nil {
		t.Error("Col on missing column should error")
	}
	iv, err := tb.Ints("iter")
	if err != nil || iv[2] != 2 {
		t.Errorf("Ints: %v %v", iv, err)
	}
	if _, err := tb.Ints("item"); err == nil {
		t.Error("Ints on item column should error")
	}
}

func TestTableAddColValidation(t *testing.T) {
	tb := MustTable("a", IntVec{1, 2})
	if err := tb.AddCol("b", IntVec{1}); err == nil {
		t.Error("length mismatch must be rejected")
	}
	if err := tb.AddCol("a", IntVec{3, 4}); err == nil {
		t.Error("duplicate column must be rejected")
	}
	if _, err := NewTable("x"); err == nil {
		t.Error("odd pair count must be rejected")
	}
	if _, err := NewTable(1, IntVec{1}); err == nil {
		t.Error("non-string name must be rejected")
	}
	if _, err := NewTable("x", "not a vec"); err == nil {
		t.Error("non-vec column must be rejected")
	}
}

func TestTableProjectRename(t *testing.T) {
	tb := MustTable("iter", IntVec{1, 2}, "item", ItemVec{Str("a"), Str("b")})
	p, err := tb.Project("outer:iter", "item", "copy:item")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Cols(); len(got) != 3 || got[0] != "outer" || got[2] != "copy" {
		t.Errorf("cols = %v", got)
	}
	if p.MustCol("copy").ItemAt(1).S != "b" {
		t.Error("rename duplicated column content wrong")
	}
	if _, err := tb.Project("x:nope"); err == nil {
		t.Error("projecting a missing column should error")
	}
	if _, err := tb.Project("iter", "iter"); err == nil {
		t.Error("duplicate output column should error")
	}
}

func TestTableGatherAndSlice(t *testing.T) {
	tb := MustTable("a", IntVec{1, 2, 3, 4}, "b", StrVec{"w", "x", "y", "z"})
	g := tb.Gather([]int32{2, 0})
	if g.Rows() != 2 || g.MustCol("b").ItemAt(0).S != "y" {
		t.Error("gather mismatch")
	}
	s := tb.Slice(1, 3)
	if s.Rows() != 2 || s.MustCol("a").(IntVec)[0] != 2 {
		t.Error("slice mismatch")
	}
	if e := tb.Empty(); e.Rows() != 0 || len(e.Cols()) != 2 {
		t.Error("empty mismatch")
	}
}

func TestTableSortBy(t *testing.T) {
	tb := MustTable(
		"iter", IntVec{2, 1, 2, 1},
		"pos", IntVec{1, 2, 2, 1},
		"item", ItemVec{Str("c"), Str("b"), Str("d"), Str("a")},
	)
	s, err := tb.SortBy("iter", "pos")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c", "d"}
	for i, w := range want {
		if got := s.MustCol("item").ItemAt(i).S; got != w {
			t.Errorf("row %d: got %q want %q", i, got, w)
		}
	}
	if _, err := tb.SortBy("nope"); err == nil {
		t.Error("sort by missing column should error")
	}
}

func TestSortByIsStable(t *testing.T) {
	tb := MustTable("k", IntVec{1, 1, 1}, "v", StrVec{"first", "second", "third"})
	s, err := tb.SortBy("k")
	if err != nil {
		t.Fatal(err)
	}
	if s.MustCol("v").ItemAt(0).S != "first" || s.MustCol("v").ItemAt(2).S != "third" {
		t.Error("equal keys must keep input order")
	}
}

// TestSortBySortedInputIsReturned: a table already in the requested
// order comes back as itself, ties and untyped key columns included; an
// unsorted one comes back in the order a stable sort over boxed
// CompareTotal keys — what SortBy ran unconditionally before — produces.
func TestSortBySortedInputIsReturned(t *testing.T) {
	sorted := MustTable(
		"iter", IntVec{1, 1, 2, 2, 5},
		"pos", ItemVec{Int(1), Int(2), Int(1), Int(1), Int(9)},
		"item", StrVec{"a", "b", "c", "d", "e"},
	)
	for _, cols := range [][]string{{"iter"}, {"iter", "pos"}} {
		if s, err := sorted.SortBy(cols...); err != nil || s != sorted {
			t.Errorf("SortBy(%v) on sorted input: got %p (err %v), want the receiver %p", cols, s, err, sorted)
		}
	}
	if s, _ := sorted.Empty().SortBy("iter"); s.Rows() != 0 {
		t.Error("empty table must sort to an empty table")
	}

	f := func(iters, poss []uint8) bool {
		n := min(len(iters), len(poss))
		iter, pos, tag := make(IntVec, n), make(ItemVec, n), make(IntVec, n)
		for i := 0; i < n; i++ {
			iter[i], pos[i], tag[i] = int64(iters[i]%4), Int(int64(poss[i]%3)), int64(i)
		}
		tb := MustTable("iter", iter, "pos", pos, "tag", tag)
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		sort.SliceStable(idx, func(a, b int) bool {
			for _, v := range []Vec{iter, pos} {
				if c := CompareTotal(v.ItemAt(int(idx[a])), v.ItemAt(int(idx[b]))); c != 0 {
					return c < 0
				}
			}
			return false
		})
		got, err := tb.SortBy("iter", "pos")
		return err == nil && got.String() == tb.Gather(idx).String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareTotalNodesDocumentOrder(t *testing.T) {
	a, b := Node(NodeRef{0, 3}), Node(NodeRef{1, 0})
	if CompareTotal(a, b) >= 0 {
		t.Error("fragment 0 before fragment 1")
	}
	if CompareTotal(Node(NodeRef{0, 1}), Node(NodeRef{0, 2})) >= 0 {
		t.Error("pre order within fragment")
	}
}

func TestRampAndConstInt(t *testing.T) {
	r := Ramp(5, 4)
	for i, v := range r {
		if v != int64(5+i) {
			t.Fatalf("ramp[%d] = %d", i, v)
		}
	}
	c := ConstInt(9, 3)
	for _, v := range c {
		if v != 9 {
			t.Fatal("const mismatch")
		}
	}
}

// Property: total comparison is antisymmetric and consistent for random
// numeric items, and Key equality coincides with CompareTotal == 0 for
// numerics.
func TestQuickCompareTotalConsistency(t *testing.T) {
	f := func(a, b int32, fa, fb float64) bool {
		items := []Item{Int(int64(a)), Int(int64(b)), Float(fa), Float(fb)}
		for _, x := range items {
			for _, y := range items {
				cxy, cyx := CompareTotal(x, y), CompareTotal(y, x)
				if sign(cxy) != -sign(cyx) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// Property: Gather then ItemAt equals direct ItemAt for random int vectors.
func TestQuickGatherFidelity(t *testing.T) {
	f := func(vals []int64, picks []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		v := IntVec(vals)
		idx := make([]int32, len(picks))
		for i, p := range picks {
			idx[i] = int32(int(p) % len(vals))
		}
		g := v.Gather(idx)
		for i, ix := range idx {
			if g.ItemAt(i).I != vals[ix] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableStringTruncates(t *testing.T) {
	big := make(IntVec, 100)
	tb := MustTable("x", big)
	s := tb.String()
	if len(s) == 0 || !contains(s, "100 rows total") {
		t.Errorf("String should mention truncation, got %q", s[:min(len(s), 80)])
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestSortByIntKeyLane: the "already sorted?" scan has a lane for all-int
// keys and the comparator for the rest; both must give the verdict of the
// definition — no row below its predecessor under CompareTotal, key by key
// — on sorted, unsorted and tied input, for one to five keys (five
// outgrows the lane's stack buffer) and with one key boxed as items.
func TestSortByIntKeyLane(t *testing.T) {
	f := func(raw [][5]uint8, nkeys uint8, sortFirst, boxOne bool) bool {
		k := 1 + int(nkeys%5)
		n := len(raw)
		cols := make([]IntVec, k)
		for c := range cols {
			cols[c] = make(IntVec, n)
			for i := range raw {
				cols[c][i] = int64(raw[i][c] % 3)
			}
		}
		if sortFirst {
			sort.Slice(raw, func(a, b int) bool {
				for c := 0; c < k; c++ {
					if raw[a][c]%3 != raw[b][c]%3 {
						return raw[a][c]%3 < raw[b][c]%3
					}
				}
				return false
			})
			for c := range cols {
				for i := range raw {
					cols[c][i] = int64(raw[i][c] % 3)
				}
			}
		}
		want := true
		for i := 1; i < n && want; i++ {
			for c := 0; c < k; c++ {
				if cols[c][i] != cols[c][i-1] {
					want = cols[c][i] > cols[c][i-1]
					break
				}
			}
		}
		pairs, names := []any{}, []string{}
		for c := range cols {
			name := string(rune('a' + c))
			var v Vec = cols[c]
			if boxOne && c == k-1 {
				boxed := make(ItemVec, n)
				for i := range boxed {
					boxed[i] = Int(cols[c][i])
				}
				v = boxed
			}
			pairs, names = append(pairs, name, v), append(names, name)
		}
		tb := MustTable(pairs...)
		got, err := tb.SortBy(names...)
		if err != nil || (got == tb) != want && n > 0 {
			return false
		}
		// Whichever lane answered, the result is in order.
		again, err := got.SortBy(names...)
		return err == nil && again == got
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
