package bat

import "fmt"

// ColType enumerates the physical column types the engine stores.
type ColType uint8

// Column types. TInt backs the dense iter/pos columns the loop-lifting
// encoding relies on; TItem is the polymorphic item column of Figure 2.
const (
	TInt ColType = iota
	TFloat
	TStr
	TBool
	TNode
	TItem
)

func (t ColType) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "dbl"
	case TStr:
		return "str"
	case TBool:
		return "bit"
	case TNode:
		return "node"
	case TItem:
		return "item"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Vec is one column vector. Implementations are typed slices; Item-level
// access goes through ItemAt/AppendItem so generic operators can stay
// oblivious to the physical type while typed fast paths (Ints, Items)
// remain available.
type Vec interface {
	Len() int
	Type() ColType
	ItemAt(i int) Item
	// Gather builds a new vector containing rows idx[0], idx[1], ... .
	Gather(idx []int32) Vec
	// Slice returns the half-open row range [lo, hi).
	Slice(lo, hi int) Vec
	// New returns an empty vector of the same physical type with capacity
	// hint n.
	New(n int) Builder
}

// Builder accumulates rows for a new vector.
type Builder interface {
	AppendItem(it Item)
	// AppendFrom appends row i of src, which must have the same physical
	// type as the builder (or be item-compatible).
	AppendFrom(src Vec, i int)
	Build() Vec
}

// IntVec is a dense integer column (iter, pos, pre, size, level, ...).
type IntVec []int64

func (v IntVec) Len() int          { return len(v) }
func (v IntVec) Type() ColType     { return TInt }
func (v IntVec) ItemAt(i int) Item { return Int(v[i]) }
func (v IntVec) Gather(idx []int32) Vec {
	out := make(IntVec, len(idx))
	for j, i := range idx {
		out[j] = v[i]
	}
	return out
}
func (v IntVec) Slice(lo, hi int) Vec { return v[lo:hi] }
func (v IntVec) New(n int) Builder    { b := make(IntVec, 0, n); return &intBuilder{b} }

type intBuilder struct{ v IntVec }

func (b *intBuilder) AppendItem(it Item) { b.v = append(b.v, it.I) }
func (b *intBuilder) AppendFrom(src Vec, i int) {
	if s, ok := src.(IntVec); ok {
		b.v = append(b.v, s[i])
		return
	}
	b.v = append(b.v, src.ItemAt(i).I)
}
func (b *intBuilder) Build() Vec { return b.v }

// FloatVec is a column of xs:double values.
type FloatVec []float64

func (v FloatVec) Len() int          { return len(v) }
func (v FloatVec) Type() ColType     { return TFloat }
func (v FloatVec) ItemAt(i int) Item { return Float(v[i]) }
func (v FloatVec) Gather(idx []int32) Vec {
	out := make(FloatVec, len(idx))
	for j, i := range idx {
		out[j] = v[i]
	}
	return out
}
func (v FloatVec) Slice(lo, hi int) Vec { return v[lo:hi] }
func (v FloatVec) New(n int) Builder    { b := make(FloatVec, 0, n); return &floatBuilder{b} }

type floatBuilder struct{ v FloatVec }

func (b *floatBuilder) AppendItem(it Item) { b.v = append(b.v, it.AsFloat()) }
func (b *floatBuilder) AppendFrom(src Vec, i int) {
	if s, ok := src.(FloatVec); ok {
		b.v = append(b.v, s[i])
		return
	}
	b.v = append(b.v, src.ItemAt(i).AsFloat())
}
func (b *floatBuilder) Build() Vec { return b.v }

// StrVec is a column of strings.
type StrVec []string

func (v StrVec) Len() int          { return len(v) }
func (v StrVec) Type() ColType     { return TStr }
func (v StrVec) ItemAt(i int) Item { return Str(v[i]) }
func (v StrVec) Gather(idx []int32) Vec {
	out := make(StrVec, len(idx))
	for j, i := range idx {
		out[j] = v[i]
	}
	return out
}
func (v StrVec) Slice(lo, hi int) Vec { return v[lo:hi] }
func (v StrVec) New(n int) Builder    { b := make(StrVec, 0, n); return &strBuilder{b} }

type strBuilder struct{ v StrVec }

func (b *strBuilder) AppendItem(it Item) { b.v = append(b.v, it.S) }
func (b *strBuilder) AppendFrom(src Vec, i int) {
	if s, ok := src.(StrVec); ok {
		b.v = append(b.v, s[i])
		return
	}
	b.v = append(b.v, src.ItemAt(i).StringValue())
}
func (b *strBuilder) Build() Vec { return b.v }

// BoolVec is a column of booleans (σ selects on these).
type BoolVec []bool

func (v BoolVec) Len() int          { return len(v) }
func (v BoolVec) Type() ColType     { return TBool }
func (v BoolVec) ItemAt(i int) Item { return Bool(v[i]) }
func (v BoolVec) Gather(idx []int32) Vec {
	out := make(BoolVec, len(idx))
	for j, i := range idx {
		out[j] = v[i]
	}
	return out
}
func (v BoolVec) Slice(lo, hi int) Vec { return v[lo:hi] }
func (v BoolVec) New(n int) Builder    { b := make(BoolVec, 0, n); return &boolBuilder{b} }

type boolBuilder struct{ v BoolVec }

func (b *boolBuilder) AppendItem(it Item) { b.v = append(b.v, it.B) }
func (b *boolBuilder) AppendFrom(src Vec, i int) {
	if s, ok := src.(BoolVec); ok {
		b.v = append(b.v, s[i])
		return
	}
	b.v = append(b.v, src.ItemAt(i).B)
}
func (b *boolBuilder) Build() Vec { return b.v }

// NodeVec is a column of node references (context nodes feeding the
// staircase join).
type NodeVec []NodeRef

func (v NodeVec) Len() int          { return len(v) }
func (v NodeVec) Type() ColType     { return TNode }
func (v NodeVec) ItemAt(i int) Item { return Node(v[i]) }
func (v NodeVec) Gather(idx []int32) Vec {
	out := make(NodeVec, len(idx))
	for j, i := range idx {
		out[j] = v[i]
	}
	return out
}
func (v NodeVec) Slice(lo, hi int) Vec { return v[lo:hi] }
func (v NodeVec) New(n int) Builder    { b := make(NodeVec, 0, n); return &nodeBuilder{b} }

type nodeBuilder struct{ v NodeVec }

func (b *nodeBuilder) AppendItem(it Item) { b.v = append(b.v, it.N) }
func (b *nodeBuilder) AppendFrom(src Vec, i int) {
	if s, ok := src.(NodeVec); ok {
		b.v = append(b.v, s[i])
		return
	}
	b.v = append(b.v, src.ItemAt(i).N)
}
func (b *nodeBuilder) Build() Vec { return b.v }

// ItemVec is the polymorphic item column of the sequence encoding
// (Figure 2 in the paper).
type ItemVec []Item

func (v ItemVec) Len() int          { return len(v) }
func (v ItemVec) Type() ColType     { return TItem }
func (v ItemVec) ItemAt(i int) Item { return v[i] }
func (v ItemVec) Gather(idx []int32) Vec {
	out := make(ItemVec, len(idx))
	for j, i := range idx {
		out[j] = v[i]
	}
	return out
}
func (v ItemVec) Slice(lo, hi int) Vec { return v[lo:hi] }
func (v ItemVec) New(n int) Builder    { b := make(ItemVec, 0, n); return &itemBuilder{b} }

type itemBuilder struct{ v ItemVec }

func (b *itemBuilder) AppendItem(it Item)        { b.v = append(b.v, it) }
func (b *itemBuilder) AppendFrom(src Vec, i int) { b.v = append(b.v, src.ItemAt(i)) }
func (b *itemBuilder) Build() Vec                { return b.v }

// NewVec returns an empty builder for the given physical type.
func NewVec(t ColType, n int) Builder {
	switch t {
	case TInt:
		return IntVec(nil).New(n)
	case TFloat:
		return FloatVec(nil).New(n)
	case TStr:
		return StrVec(nil).New(n)
	case TBool:
		return BoolVec(nil).New(n)
	case TNode:
		return NodeVec(nil).New(n)
	default:
		return ItemVec(nil).New(n)
	}
}

// ConstInt returns an integer vector of n copies of v — the paper's
// constant iter column for top-level scope s0 is built this way.
func ConstInt(v int64, n int) IntVec {
	out := make(IntVec, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// RangeLen is the number of integers in lo..hi, 0 when hi < lo — the
// expansion size of XQuery's `lo to hi`, which both executors check
// before they allocate. A range spanning more than 50 million is an
// error rather than an exhausted heap. The span is taken in uint64,
// where hi-lo is exact for any lo <= hi, so ranges ending at the int64
// edge neither wrap nor slip under the bound.
func RangeLen(lo, hi int64) (int, error) {
	if hi < lo {
		return 0, nil
	}
	span := uint64(hi) - uint64(lo)
	if span > 50_000_000 {
		return 0, fmt.Errorf("range %d..%d too large", lo, hi)
	}
	return int(span) + 1, nil
}

// Ramp returns the dense sequence base, base+1, ... of length n. MonetDB
// realizes these as virtual (void) columns; materializing keeps the engine
// simple while the optimizer still recognizes ramp-ness via properties.
func Ramp(base int64, n int) IntVec {
	out := make(IntVec, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}
