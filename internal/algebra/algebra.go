package algebra

import (
	"fmt"
	"slices"
	"strings"

	"pathfinder/internal/bat"
)

// OpKind enumerates the operators of Table 1 (plus the aggregation and
// document-access operators the compilation rules for fn:count, fn:sum and
// fn:doc require).
type OpKind uint8

// Operators.
const (
	OpLit      OpKind = iota // literal table
	OpProject                // π: projection, renaming, column duplication
	OpSelect                 // σ: keep rows whose (boolean) column is true
	OpUnion                  // ∪̇: disjoint union
	OpDiff                   // \: anti-join on key columns (set difference when keys = full schema)
	OpDistinct               // δ: duplicate elimination over all columns
	OpJoin                   // ⋈: equi-join
	OpSemiJoin               // ⋉: equi-semi-join
	OpCross                  // ×: Cartesian product
	OpRowNum                 // ϱ: dense row numbering per partition, ordered
	OpRowID                  // MonetDB mark: global dense numbering in input order
	OpFun                    // ⊛: per-row function
	OpAggr                   // per-partition aggregate
	OpStep                   // staircase join: XPath location step
	OpDoc                    // fn:doc: URI strings → document nodes
	OpElem                   // ε: element construction
	OpText                   // τ: text node construction
	OpAttrC                  // attribute construction
	OpRoots                  // fn:root per node item
	OpRange                  // integer range: one row per value in [lo, hi]
	OpColl                   // fn:collection: collection names → document node sequences
)

func (k OpKind) String() string {
	names := [...]string{"lit", "project", "select", "union", "diff", "distinct",
		"join", "semijoin", "cross", "rownum", "rowid", "fun", "aggr", "step",
		"doc", "elem", "text", "attr", "roots", "range", "coll"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// ProjPair renames Old to New in a projection (New == Old keeps the name).
type ProjPair struct{ New, Old string }

// OrderSpec orders a row-numbering operator by Col, descending when Desc.
type OrderSpec struct {
	Col  string
	Desc bool
}

// Op is one node of a plan DAG. The parameter fields used depend on Kind;
// constructors validate schemas eagerly so a constructed DAG is always
// well-formed.
type Op struct {
	Kind OpKind

	// Parameters (by Kind). The one-byte ones come first and share a
	// word: every rewrite allocates operators.
	Fun  FunKind // OpFun
	Agg  AggKind // OpAggr
	Axis Axis    // OpStep
	Type SeqType // OpFun with FunTypeIs

	In []*Op

	Lit      *bat.Table  // OpLit
	Proj     []ProjPair  // OpProject
	Col      string      // OpSelect: bool column; OpFun/OpAggr/OpRowNum/OpRowID: result column
	KeyL     []string    // OpJoin/OpSemiJoin/OpDiff: left key columns
	KeyR     []string    // OpJoin/OpSemiJoin/OpDiff: right key columns
	Part     string      // OpRowNum/OpAggr: partition column ("" = single partition)
	Order    []OrderSpec // OpRowNum: ordering
	Args     []string    // OpFun: argument columns; OpAggr: [0] = aggregated column
	Test     KindTest    // OpStep
	TypeName string      // OpFun with FunTypeIs: element name restriction
	Sep      string      // OpAggr with AggStrJoin: separator

	schema []string
}

// Schema returns the output column names in order.
func (o *Op) Schema() []string { return o.schema }

// HasCol reports whether the output schema contains col.
func (o *Op) HasCol(col string) bool {
	for _, c := range o.schema {
		if c == col {
			return true
		}
	}
	return false
}

func requireCols(o *Op, who string, cols ...string) error {
	for _, c := range cols {
		if !o.HasCol(c) {
			return fmt.Errorf("%s: input lacks column %q (schema %s)", who, c, strings.Join(o.schema, "|"))
		}
	}
	return nil
}

// Lit wraps a literal table as a plan leaf.
func Lit(t *bat.Table) *Op {
	return &Op{Kind: OpLit, Lit: t, schema: t.Cols()}
}

// LitSeq builds the paper's Figure 2-style literal encoding: a table
// pos|item with pos = 1..n — the compilation of a literal sequence in the
// top-level scope before loop-lifting attaches iter.
func LitSeq(items ...bat.Item) *Op {
	return Lit(bat.MustTable(
		"pos", bat.Ramp(1, len(items)),
		"item", bat.ItemVec(items),
	))
}

// Project applies π. Specs are "name" or "new:old"; a source column may be
// duplicated under several names. π never eliminates duplicate rows.
func Project(in *Op, specs ...string) (*Op, error) {
	pairs := make([]ProjPair, len(specs))
	for i, s := range specs {
		pairs[i] = ProjPair{New: s, Old: s}
		if j := strings.IndexByte(s, ':'); j >= 0 {
			pairs[i] = ProjPair{New: s[:j], Old: s[j+1:]}
		}
	}
	return ProjectPairs(in, pairs)
}

// ProjectPairs is Project over already split renamings; the operator
// keeps pairs as its Proj.
func ProjectPairs(in *Op, pairs []ProjPair) (*Op, error) {
	schema := make([]string, len(pairs))
	for i, p := range pairs {
		if err := requireCols(in, "π", p.Old); err != nil {
			return nil, err
		}
		if slices.Contains(schema[:i], p.New) {
			return nil, fmt.Errorf("π: duplicate output column %q", p.New)
		}
		schema[i] = p.New
	}
	return &Op{Kind: OpProject, In: []*Op{in}, Proj: pairs, schema: schema}, nil
}

// Select applies σ: rows whose boolean column col is true survive. The
// column is retained (π drops it later if unwanted).
func Select(in *Op, col string) (*Op, error) {
	if err := requireCols(in, "σ", col); err != nil {
		return nil, err
	}
	return &Op{Kind: OpSelect, In: []*Op{in}, Col: col, schema: in.schema}, nil
}

// Union forms the disjoint union of two plans with identical schemas
// (order-insensitive; the output uses the left schema order).
func Union(l, r *Op) (*Op, error) {
	if len(l.schema) != len(r.schema) {
		return nil, fmt.Errorf("∪: schema size mismatch %v vs %v", l.schema, r.schema)
	}
	for _, c := range l.schema {
		if !r.HasCol(c) {
			return nil, fmt.Errorf("∪: right side lacks column %q", c)
		}
	}
	return &Op{Kind: OpUnion, In: []*Op{l, r}, schema: l.schema}, nil
}

// Diff returns the rows of l whose key columns have no match in r
// (an anti-semi-join; with keys spanning the full schema of duplicate-free
// inputs this is the set difference of Table 1).
func Diff(l, r *Op, keyL, keyR []string) (*Op, error) {
	if len(keyL) != len(keyR) || len(keyL) == 0 {
		return nil, fmt.Errorf("\\: need matching key column lists")
	}
	if err := requireCols(l, "\\", keyL...); err != nil {
		return nil, err
	}
	if err := requireCols(r, "\\", keyR...); err != nil {
		return nil, err
	}
	return &Op{Kind: OpDiff, In: []*Op{l, r}, KeyL: keyL, KeyR: keyR, schema: l.schema}, nil
}

// Distinct applies δ over the full schema.
func Distinct(in *Op) *Op {
	return &Op{Kind: OpDistinct, In: []*Op{in}, schema: in.schema}
}

// Join applies the equi-join l ⋈ r on the given key column pairs. Column
// names must be disjoint between the two sides.
func Join(l, r *Op, keyL, keyR []string) (*Op, error) {
	if len(keyL) != len(keyR) || len(keyL) == 0 {
		return nil, fmt.Errorf("⋈: need matching key column lists")
	}
	if err := requireCols(l, "⋈", keyL...); err != nil {
		return nil, err
	}
	if err := requireCols(r, "⋈", keyR...); err != nil {
		return nil, err
	}
	for _, c := range r.schema {
		if l.HasCol(c) {
			return nil, fmt.Errorf("⋈: column %q appears on both sides", c)
		}
	}
	return &Op{Kind: OpJoin, In: []*Op{l, r}, KeyL: keyL, KeyR: keyR,
		schema: append(append([]string{}, l.schema...), r.schema...)}, nil
}

// SemiJoin keeps the rows of l with at least one key match in r.
func SemiJoin(l, r *Op, keyL, keyR []string) (*Op, error) {
	if len(keyL) != len(keyR) || len(keyL) == 0 {
		return nil, fmt.Errorf("⋉: need matching key column lists")
	}
	if err := requireCols(l, "⋉", keyL...); err != nil {
		return nil, err
	}
	if err := requireCols(r, "⋉", keyR...); err != nil {
		return nil, err
	}
	return &Op{Kind: OpSemiJoin, In: []*Op{l, r}, KeyL: keyL, KeyR: keyR, schema: l.schema}, nil
}

// Cross forms the Cartesian product (column names must be disjoint).
func Cross(l, r *Op) (*Op, error) {
	for _, c := range r.schema {
		if l.HasCol(c) {
			return nil, fmt.Errorf("×: column %q appears on both sides", c)
		}
	}
	return &Op{Kind: OpCross, In: []*Op{l, r},
		schema: append(append([]string{}, l.schema...), r.schema...)}, nil
}

// RowNum applies ϱ: a new column numbering rows 1,2,... densely per
// partition, in the order given by the order columns (ties keep the input
// order, making the operator deterministic).
func RowNum(in *Op, newCol string, order []OrderSpec, part string) (*Op, error) {
	if in.HasCol(newCol) {
		return nil, fmt.Errorf("ϱ: output column %q already exists", newCol)
	}
	for _, o := range order {
		if err := requireCols(in, "ϱ", o.Col); err != nil {
			return nil, err
		}
	}
	if part != "" {
		if err := requireCols(in, "ϱ", part); err != nil {
			return nil, err
		}
	}
	return &Op{Kind: OpRowNum, In: []*Op{in}, Col: newCol, Order: order, Part: part,
		schema: append(append([]string{}, in.schema...), newCol)}, nil
}

// RowID numbers rows 1..n in input order — MonetDB's mark operator, the
// no-cost numbering the paper highlights.
func RowID(in *Op, newCol string) (*Op, error) {
	if in.HasCol(newCol) {
		return nil, fmt.Errorf("mark: output column %q already exists", newCol)
	}
	return &Op{Kind: OpRowID, In: []*Op{in}, Col: newCol,
		schema: append(append([]string{}, in.schema...), newCol)}, nil
}

// Fun applies a per-row function to argument columns, producing a new
// column.
func Fun(in *Op, newCol string, fun FunKind, args ...string) (*Op, error) {
	if in.HasCol(newCol) {
		return nil, fmt.Errorf("⊛%s: output column %q already exists", fun, newCol)
	}
	if len(args) != fun.Arity() {
		return nil, fmt.Errorf("⊛%s: got %d args, want %d", fun, len(args), fun.Arity())
	}
	if err := requireCols(in, "⊛"+fun.String(), args...); err != nil {
		return nil, err
	}
	return &Op{Kind: OpFun, In: []*Op{in}, Col: newCol, Fun: fun, Args: args,
		schema: append(append([]string{}, in.schema...), newCol)}, nil
}

// TypeTest builds the FunTypeIs row function testing items against a
// sequence type (element name restricted when tyName != "").
func TypeTest(in *Op, newCol string, ty SeqType, tyName string, arg string) (*Op, error) {
	o, err := Fun(in, newCol, FunTypeIs, arg)
	if err != nil {
		return nil, err
	}
	o.Type, o.TypeName = ty, tyName
	return o, nil
}

// Aggr computes an aggregate per value of the partition column. The output
// schema is part|newCol (or just newCol when part == "", yielding a single
// row). Partitions absent from the input are absent from the output; the
// compiler fills in defaults (e.g. count = 0) via Diff/Union against the
// loop relation.
func Aggr(in *Op, newCol string, agg AggKind, argCol, part string) (*Op, error) {
	if agg != AggCount {
		if err := requireCols(in, agg.String(), argCol); err != nil {
			return nil, err
		}
	}
	schema := []string{newCol}
	if part != "" {
		if err := requireCols(in, agg.String(), part); err != nil {
			return nil, err
		}
		schema = []string{part, newCol}
	}
	args := []string{}
	if agg != AggCount {
		args = []string{argCol}
	}
	return &Op{Kind: OpAggr, In: []*Op{in}, Col: newCol, Agg: agg, Args: args,
		Part: part, schema: schema}, nil
}

// StrJoin builds the string-join aggregate: the string values of argCol,
// concatenated per partition in row order with sep between them.
func StrJoin(in *Op, newCol, argCol, part, sep string) (*Op, error) {
	o, err := Aggr(in, newCol, AggStrJoin, argCol, part)
	if err != nil {
		return nil, err
	}
	o.Sep = sep
	return o, nil
}

// Step applies the staircase join: for each input row, item (a node) is
// stepped along the axis with the node test; the output is the distinct
// set of (iter, item) result pairs in document order per iter.
func Step(in *Op, axis Axis, test KindTest) (*Op, error) {
	if err := requireCols(in, "staircase", "iter", "item"); err != nil {
		return nil, err
	}
	return &Op{Kind: OpStep, In: []*Op{in}, Axis: axis, Test: test,
		schema: []string{"iter", "item"}}, nil
}

// DocOp resolves the URI strings in item to document nodes, replacing the
// item column in place (all other columns pass through).
func DocOp(in *Op) (*Op, error) {
	if err := requireCols(in, "doc", "iter", "item"); err != nil {
		return nil, err
	}
	return &Op{Kind: OpDoc, In: []*Op{in}, schema: in.schema}, nil
}

// Roots maps each node in item to its tree root (fn:root), replacing the
// item column in place.
func Roots(in *Op) (*Op, error) {
	if err := requireCols(in, "roots", "iter", "item"); err != nil {
		return nil, err
	}
	return &Op{Kind: OpRoots, In: []*Op{in}, schema: in.schema}, nil
}

// Range expands each input row into the integer sequence [lo, hi]: output
// iter|pos|item with one row per integer (empty when lo > hi) — the
// compilation of XQuery's `e1 to e2` range expression. KeyL carries the
// lo/hi column names.
func Range(in *Op, loCol, hiCol string) (*Op, error) {
	if err := requireCols(in, "range", "iter", loCol, hiCol); err != nil {
		return nil, err
	}
	return &Op{Kind: OpRange, In: []*Op{in}, KeyL: []string{loCol, hiCol},
		schema: []string{"iter", "pos", "item"}}, nil
}

// CollOp expands each collection name in item into the sequence of
// document nodes of that collection, in shard-manifest order: output
// iter|pos|item with one row per document (like Range, an expanding
// operator whose fan-out is data-dependent). A single-document collection
// behaves exactly like fn:doc with a pos column of 1s.
func CollOp(in *Op) (*Op, error) {
	if err := requireCols(in, "coll", "iter", "item"); err != nil {
		return nil, err
	}
	return &Op{Kind: OpColl, In: []*Op{in}, schema: []string{"iter", "pos", "item"}}, nil
}

// Elem is the ε operator: per iter of qnames (schema iter|item holding tag
// strings, one row per iter), construct an element whose content is the
// iter's slice of content (schema iter|pos|item). Output: iter|item with
// the new element nodes.
func Elem(qnames, content *Op) (*Op, error) {
	if err := requireCols(qnames, "ε", "iter", "item"); err != nil {
		return nil, err
	}
	if err := requireCols(content, "ε", "iter", "pos", "item"); err != nil {
		return nil, err
	}
	return &Op{Kind: OpElem, In: []*Op{qnames, content}, schema: []string{"iter", "item"}}, nil
}

// Text is the τ operator: construct one text node per input row from the
// string in item. Rows with empty strings produce no node.
func Text(in *Op) (*Op, error) {
	if err := requireCols(in, "τ", "iter", "item"); err != nil {
		return nil, err
	}
	return &Op{Kind: OpText, In: []*Op{in}, schema: []string{"iter", "item"}}, nil
}

// AttrC constructs one attribute node per iter from names (iter|item) and
// values (iter|item).
func AttrC(names, values *Op) (*Op, error) {
	if err := requireCols(names, "attr", "iter", "item"); err != nil {
		return nil, err
	}
	if err := requireCols(values, "attr", "iter", "item"); err != nil {
		return nil, err
	}
	return &Op{Kind: OpAttrC, In: []*Op{names, values}, schema: []string{"iter", "item"}}, nil
}

// Unchecked builds an operator node with the given declared schema and no
// constructor validation. The compiler never calls this: it exists for the
// corrupted-plan corpus of internal/check (which needs structurally broken
// DAGs the validating constructors refuse to build) and for plan
// deserializers that re-check via Validate afterwards. Parameter fields
// (Col, KeyL, ...) are set directly on the returned node.
func Unchecked(kind OpKind, schema []string, in ...*Op) *Op {
	return &Op{Kind: kind, In: in, schema: schema}
}

// CountOps returns the number of distinct operator nodes in the DAG —
// the paper quotes plan sizes this way (Q8 compiles to ~120 operators).
func CountOps(root *Op) int {
	seen := make(map[*Op]bool)
	var walk func(*Op)
	walk = func(o *Op) {
		if seen[o] {
			return
		}
		seen[o] = true
		for _, in := range o.In {
			walk(in)
		}
	}
	walk(root)
	return len(seen)
}

// Validate re-checks structural invariants over the whole DAG; the
// optimizer calls this after rewriting.
func Validate(root *Op) error {
	seen := make(map[*Op]bool)
	var walk func(*Op) error
	walk = func(o *Op) error {
		if seen[o] {
			return nil
		}
		seen[o] = true
		for _, in := range o.In {
			if err := walk(in); err != nil {
				return err
			}
		}
		return o.check()
	}
	return walk(root)
}

func (o *Op) check() error {
	switch o.Kind {
	case OpLit:
		if o.Lit == nil {
			return fmt.Errorf("lit: nil table")
		}
	case OpProject:
		for _, p := range o.Proj {
			if !o.In[0].HasCol(p.Old) {
				return fmt.Errorf("π: missing %q", p.Old)
			}
		}
	case OpSelect:
		if !o.In[0].HasCol(o.Col) {
			return fmt.Errorf("σ: missing %q", o.Col)
		}
	case OpJoin, OpSemiJoin, OpDiff:
		for i := range o.KeyL {
			if !o.In[0].HasCol(o.KeyL[i]) || !o.In[1].HasCol(o.KeyR[i]) {
				return fmt.Errorf("%s: bad keys %v=%v", o.Kind, o.KeyL, o.KeyR)
			}
		}
	case OpFun:
		for _, a := range o.Args {
			if !o.In[0].HasCol(a) {
				return fmt.Errorf("⊛: missing %q", a)
			}
		}
	case OpRowNum:
		for _, s := range o.Order {
			if !o.In[0].HasCol(s.Col) {
				return fmt.Errorf("ϱ: missing order column %q", s.Col)
			}
		}
		if o.Part != "" && !o.In[0].HasCol(o.Part) {
			return fmt.Errorf("ϱ: missing partition column %q", o.Part)
		}
	case OpAggr:
		for _, a := range o.Args {
			if !o.In[0].HasCol(a) {
				return fmt.Errorf("%s: missing %q", o.Agg, a)
			}
		}
		if o.Part != "" && !o.In[0].HasCol(o.Part) {
			return fmt.Errorf("%s: missing partition column %q", o.Agg, o.Part)
		}
	case OpRange:
		if len(o.KeyL) != 2 || !o.In[0].HasCol(o.KeyL[0]) || !o.In[0].HasCol(o.KeyL[1]) {
			return fmt.Errorf("range: bad bound columns %v", o.KeyL)
		}
	case OpStep, OpDoc, OpRoots, OpText, OpColl:
		if !o.In[0].HasCol("iter") || !o.In[0].HasCol("item") {
			return fmt.Errorf("%s: input lacks iter|item", o.Kind)
		}
	}
	return nil
}
