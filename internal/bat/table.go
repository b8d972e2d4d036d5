package bat

import (
	"cmp"
	"fmt"
	"sort"
	"strings"
)

// Table is a relation: an ordered list of named column vectors of equal
// length. Row order is significant — the loop-lifting encoding relies on
// tables being materialized in (iter, pos) order, and the optimizer
// reasons about that order explicitly.
//
// A table is immutable once it has been handed on: its schema and its
// vectors are shared by every table derived from it (With, Project,
// Slice, Typed share the vectors they do not change), so none of
// them may be written to. A kernel extends its input with With, which
// returns a new table, and never calls AddCol on it; AddCol only builds a
// table nobody else holds yet. Tables are sized exactly when they are
// built: a derived table costs two allocations, whatever its width.
type Table struct {
	cols []column
	n    int
}

// column is one named vector of a table.
type column struct {
	name string
	vec  Vec
}

// ProjPair is one output column of a projection: input column Old under
// the name New (New == Old keeps the name).
type ProjPair struct{ New, Old string }

// NewTableCap returns an empty table with room for width columns, for a
// kernel to fill with AddCol before it hands the table on.
func NewTableCap(width int) *Table {
	return withCap(0, width)
}

// withCap returns an empty table of n rows with room for width columns.
func withCap(n, width int) *Table {
	return &Table{n: n, cols: make([]column, 0, width)}
}

// NewTable builds a table from alternating name/vector pairs.
func NewTable(pairs ...any) (*Table, error) {
	if len(pairs)%2 != 0 {
		return nil, fmt.Errorf("NewTable: odd argument count")
	}
	t := withCap(0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			return nil, fmt.Errorf("NewTable: argument %d is not a column name", i)
		}
		vec, ok := pairs[i+1].(Vec)
		if !ok {
			return nil, fmt.Errorf("NewTable: column %q is not a Vec", name)
		}
		if err := t.AddCol(name, vec); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// MustTable is NewTable that panics on malformed construction; intended for
// tests and literal plans only.
func MustTable(pairs ...any) *Table {
	t, err := NewTable(pairs...)
	if err != nil {
		panic(err)
	}
	return t
}

// AddCol appends a column to a table under construction. All columns must
// share the same length. A table another reader holds is never extended
// in place; see With.
func (t *Table) AddCol(name string, v Vec) error {
	if len(t.cols) > 0 && v.Len() != t.n {
		return fmt.Errorf("column %q has %d rows, table has %d", name, v.Len(), t.n)
	}
	if t.HasCol(name) {
		return fmt.Errorf("duplicate column %q", name)
	}
	if len(t.cols) == 0 {
		t.n = v.Len()
	}
	t.cols = append(t.cols, column{name, v})
	return nil
}

// With returns t extended by one column, sharing t's vectors; t itself is
// left as it was.
func (t *Table) With(name string, v Vec) (*Table, error) {
	out := withCap(t.n, len(t.cols)+1)
	out.cols = append(out.cols, t.cols...)
	if err := out.AddCol(name, v); err != nil {
		return nil, err
	}
	return out, nil
}

// Rows returns the number of rows.
func (t *Table) Rows() int { return t.n }

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// ColName returns the name of column i in schema order.
func (t *Table) ColName(i int) string { return t.cols[i].name }

// ColVec returns the vector of column i in schema order.
func (t *Table) ColVec(i int) Vec { return t.cols[i].vec }

// Cols returns a copy of the column names in schema order. Kernels walk
// the columns by index instead (NumCols, ColName, ColVec).
func (t *Table) Cols() []string {
	names := make([]string, len(t.cols))
	for i, c := range t.cols {
		names[i] = c.name
	}
	return names
}

// HasCol reports whether the table has a column with the given name.
func (t *Table) HasCol(name string) bool {
	for _, c := range t.cols {
		if c.name == name {
			return true
		}
	}
	return false
}

// Col returns the named column vector.
func (t *Table) Col(name string) (Vec, error) {
	for _, c := range t.cols {
		if c.name == name {
			return c.vec, nil
		}
	}
	return nil, fmt.Errorf("unknown column %q (have %s)", name, strings.Join(t.Cols(), "|"))
}

// MustCol is Col that panics; for engine-internal access where the plan
// validator has already guaranteed the schema.
func (t *Table) MustCol(name string) Vec {
	v, err := t.Col(name)
	if err != nil {
		panic(err)
	}
	return v
}

// Ints returns the named column as an IntVec, failing if it has another
// physical type.
func (t *Table) Ints(name string) (IntVec, error) {
	v, err := t.Col(name)
	if err != nil {
		return nil, err
	}
	iv, ok := v.(IntVec)
	if !ok {
		return nil, fmt.Errorf("column %q is %s, want int", name, v.Type())
	}
	return iv, nil
}

// Gather builds a new table containing the given rows of t, in idx order.
func (t *Table) Gather(idx []int32) *Table {
	out := withCap(len(idx), len(t.cols))
	for _, c := range t.cols {
		out.cols = append(out.cols, column{c.name, c.vec.Gather(idx)})
	}
	return out
}

// Typed returns t with every item column in the vector of the kind its
// rows share (see Typed), the other columns shared; t itself when no
// column narrows.
func (t *Table) Typed() *Table {
	var out *Table
	for i, c := range t.cols {
		if c.vec.Type() != TItem {
			continue
		}
		v := Typed(c.vec)
		if v.Type() == TItem {
			continue
		}
		if out == nil {
			out = withCap(t.n, len(t.cols))
			out.cols = append(out.cols, t.cols...)
		}
		out.cols[i].vec = v
	}
	if out == nil {
		return t
	}
	return out
}

// Slice returns rows [lo, hi) of t without copying column data.
func (t *Table) Slice(lo, hi int) *Table {
	out := withCap(hi-lo, len(t.cols))
	for _, c := range t.cols {
		out.cols = append(out.cols, column{c.name, c.vec.Slice(lo, hi)})
	}
	return out
}

// Project returns a table of the requested columns, each pair naming an
// output column and the input column it shares. A source column may
// appear several times — π in the paper's algebra duplicates columns
// freely and never eliminates duplicates.
func (t *Table) Project(pairs ...ProjPair) (*Table, error) {
	out := withCap(t.n, len(pairs))
	for _, p := range pairs {
		v, err := t.Col(p.Old)
		if err != nil {
			return nil, fmt.Errorf("project: %w", err)
		}
		if out.HasCol(p.New) {
			return nil, fmt.Errorf("project: duplicate output column %q", p.New)
		}
		out.cols = append(out.cols, column{p.New, v})
	}
	return out, nil
}

// Row returns row i as items in schema order; primarily for tests and the
// plan tracer demo hook.
func (t *Table) Row(i int) []Item {
	out := make([]Item, len(t.cols))
	for j, c := range t.cols {
		out[j] = c.vec.ItemAt(i)
	}
	return out
}

// SortBy stably sorts the table by the named columns ascending and returns
// the permuted table — t itself when its rows are in that order already,
// which one linear scan decides. Node columns sort in document order;
// mixed item columns sort by kind then value, which is only used for
// duplicate grouping, never for user-visible ordering.
func (t *Table) SortBy(cols ...string) (*Table, error) {
	vecs := make([]Vec, len(cols))
	for i, c := range cols {
		v, err := t.Col(c)
		if err != nil {
			return nil, fmt.Errorf("sort: %w", err)
		}
		vecs[i] = v
	}
	less := func(a, b int) bool {
		for _, v := range vecs {
			c := 0
			if iv, ok := v.(IntVec); ok {
				c = cmp.Compare(iv[a], iv[b])
			} else {
				c = CompareTotal(v.ItemAt(a), v.ItemAt(b))
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	}
	if sortedRows(vecs, t.n, less) {
		return t, nil
	}
	idx := make([]int32, t.n)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return less(int(idx[a]), int(idx[b])) })
	return t.Gather(idx), nil
}

// sortedRows reports whether rows 0..n-1 are in non-descending key
// order. The answer is nearly always yes — ε and the serializer ask on
// every execution about (iter, pos) columns an upstream ϱ just produced —
// so integer keys, which those are, get a loop that compares the columns
// directly; any other key type goes through less.
func sortedRows(keys []Vec, n int, less func(a, b int) bool) bool {
	var buf [4]IntVec
	ints := buf[:0]
	for _, v := range keys {
		if iv, ok := v.(IntVec); ok {
			ints = append(ints, iv)
		}
	}
	if len(ints) != len(keys) {
		for i := 1; i < n; i++ {
			if less(i, i-1) {
				return false
			}
		}
		return true
	}
	for i := 1; i < n; i++ {
		for _, iv := range ints {
			if iv[i] != iv[i-1] {
				if iv[i] < iv[i-1] {
					return false
				}
				break
			}
		}
	}
	return true
}

// CompareTotal imposes a total order over items: by kind class first, then
// value. Used for sorting and duplicate elimination, not for XQuery value
// comparison (see Compare).
func CompareTotal(a, b Item) int {
	ca, cb := kindClass(a.Kind), kindClass(b.Kind)
	if ca != cb {
		return int(ca) - int(cb)
	}
	switch ca {
	case 0: // numeric
		return cmpFloat(a.AsFloat(), b.AsFloat())
	case 1: // string-ish
		return strings.Compare(a.S, b.S)
	case 2: // bool
		return int(boolInt(a.B)) - int(boolInt(b.B))
	default: // node: document order
		if a.N.Frag != b.N.Frag {
			return int(a.N.Frag) - int(b.N.Frag)
		}
		return int(a.N.Pre) - int(b.N.Pre)
	}
}

func kindClass(k Kind) uint8 {
	switch k {
	case KInt, KFloat:
		return 0
	case KStr, KUntyped:
		return 1
	case KBool:
		return 2
	default:
		return 3
	}
}

func boolInt(b bool) int8 {
	if b {
		return 1
	}
	return 0
}

// String renders the table like the paper's figures (iter|pos|item boxes);
// for debugging and the demo hooks.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Cols(), "|"))
	sb.WriteByte('\n')
	limit := t.n
	const maxRows = 50
	truncated := false
	if limit > maxRows {
		limit, truncated = maxRows, true
	}
	for i := 0; i < limit; i++ {
		parts := make([]string, len(t.cols))
		for j, c := range t.cols {
			parts[j] = c.vec.ItemAt(i).StringValue()
		}
		sb.WriteString(strings.Join(parts, "|"))
		sb.WriteByte('\n')
	}
	if truncated {
		fmt.Fprintf(&sb, "... (%d rows total)\n", t.n)
	}
	return sb.String()
}

// Empty returns a zero-row table with the same schema as t.
func (t *Table) Empty() *Table {
	return t.Slice(0, 0)
}
