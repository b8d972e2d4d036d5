// Package opt implements Pathfinder's plan rewriting: the "assembly
// style" plans emitted by the loop-lifting compiler are large (the paper
// quotes ~120 operators for XMark Q8) but highly redundant, and the
// restrictions of the algebra (π never removes duplicates, all unions
// disjoint, all joins equi-joins) make rewrites safe to verify locally.
//
// The optimizer is organized as a staged pipeline (pipeline.go): an
// explicit multi-pass driver runs
//
//	normalize → analyze → isolate
//
// to a fixed point, then re-derives properties and cleans up. The passes:
//
//   - normalize: common subexpression elimination over the DAG (MIL
//     variable sharing), projection fusion (π ∘ π → π), identity-
//     projection removal, and dead column pruning guided by the demand
//     analysis (demand.go) — plus the local order-property rewrites
//     (ϱ → mark over presorted input, δ elimination on keyed input).
//   - analyze: the join-graph analysis (joingraph.go) — which equi-joins
//     connect real value columns and which only thread loop-lifting
//     scaffolding, and which numbering towers are dead.
//   - isolate: join graph isolation (isolate.go) — removal of numbering
//     operators that only maintain an order nothing downstream observes,
//     proven via the derived order/denseness/key properties.
//
// Order-property exploitation at runtime — recognizing that a ϱ input is
// already in (partition, order) order and skipping the sort — lives in
// the engine's ϱ implementation, where the property is checked with one
// linear scan.
package opt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// Optimize rewrites the plan DAG through the staged pipeline and returns
// the (possibly new) root: Pipeline's plan, without its trace. The input
// DAG is not mutated, and the result never has more operators than the
// input: on tiny plans, where the union-alignment projections of the
// pruning pass can outweigh its savings, the CSE-only plan is returned
// instead.
func Optimize(root *algebra.Op) (*algebra.Op, error) {
	res, err := runPipeline(root, maxRounds, isolate, false)
	if err != nil {
		return nil, err
	}
	return res.Plan, nil
}

// scratch is what the passes of one pipeline run would otherwise
// allocate afresh on every call — cse's signature table, literal table
// and memo — handed from one call to the next. A run owns one; nothing in
// it outlives the run, and the zero value is ready to use.
type scratch struct {
	seed  maphash.Seed
	canon map[uint64]int32 // signature hash → the last canonical operator with it
	chain []int32          // canonical operator → the previous one with its hash, or -1
	lits  map[*bat.Table]int32
	memo  []int32
	key   []byte
	probe []byte

	pr   props      // the property memos of the pass running now
	grow *planIndex // the growing index normalize's rebuild numbers into
	walk *planIndex // the index of a DAG about to be handed to cse
}

// props hands out property memos over idx on the arrays of the previous
// ones: a pass's memos are dead before the next pass asks for its own
// (normalize's rebuild, then a round's analysis and isolation).
func (s *scratch) props(idx *planIndex) *props {
	memo := slices.Grow(s.pr.memo[:0], len(idx.ops))[:len(idx.ops)]
	clear(memo)
	s.pr = props{idx: idx, memo: memo}
	return &s.pr
}

// growing hands out an empty growing index on the tables of the previous
// one.
func (s *scratch) growing() *planIndex {
	s.grow = reset(s.grow)
	return s.grow
}

// index numbers the DAG rooted at root on the tables of the previous
// index it numbered. The pipeline walks a DAG only to hand it to cse,
// after which the walk is dead.
func (s *scratch) index(root *algebra.Op) *planIndex {
	s.walk = reset(s.walk)
	s.walk.num(root)
	return s.walk
}

// reset empties a growing index, keeping its tables; nil gets a new one.
func reset(x *planIndex) *planIndex {
	if x == nil {
		return growingIndex(0)
	}
	clear(x.id)
	*x = planIndex{ops: x.ops[:0], id: x.id, inStart: x.inStart[:0], in: x.in[:0]}
	return x
}

// cse shares structurally identical subplans — the rewriting MonetDB gets
// for free from MIL variable reuse. It emits the index of the DAG it
// returns: operators are numbered as they become canonical, which is
// algebra.Topo order of the result because the input is visited in Topo
// order and a duplicate's whole subplan was made canonical before it.
//
// Operators are looked up by a hash of their signature; every candidate
// with that hash is confirmed by comparing signatures, so a collision
// costs a comparison, never a wrong share.
func (s *scratch) cse(x *planIndex) *planIndex {
	n := len(x.ops)
	out := emittedIndex(n)
	if s.canon == nil {
		s.seed = maphash.MakeSeed()
		s.canon = make(map[uint64]int32, n)
		s.lits = make(map[*bat.Table]int32)
	}
	clear(s.canon)
	clear(s.lits)
	s.chain = s.chain[:0]
	s.memo = slices.Grow(s.memo[:0], n)[:n] // input number → number of its canonical operator
	memo := s.memo
	var buf [2]int32
	for i, o := range x.ops {
		ins := buf[:0]
		changed := false
		for k, c := range x.inputs(int32(i)) {
			ins = append(ins, memo[c])
			if out.ops[memo[c]] != o.In[k] {
				changed = true
			}
		}
		if o.Kind == algebra.OpLit {
			// Literal tables are shared by identity.
			j, ok := s.lits[o.Lit]
			if !ok {
				j = out.add(o, nil)
				s.chain = append(s.chain, -1)
				s.lits[o.Lit] = j
			}
			memo[i] = j
			continue
		}
		// Every execution of a constructor makes new nodes: two with the
		// same inputs are two results, never one — <a/> is <a/> is false.
		constructs := o.Kind == algebra.OpElem || o.Kind == algebra.OpText || o.Kind == algebra.OpAttrC
		var h uint64
		if !constructs {
			s.key = appendSignature(s.key[:0], o, ins)
			h = maphash.Bytes(s.seed, s.key)
			if j := s.canonical(out, h); j >= 0 {
				memo[i] = j
				continue
			}
		}
		cur := o
		if changed {
			cp := *o
			cp.In = make([]*algebra.Op, len(ins))
			for k, c := range ins {
				cp.In[k] = out.ops[c]
			}
			cur = &cp
		}
		j := out.add(cur, ins)
		memo[i] = j
		if constructs {
			s.chain = append(s.chain, -1)
			continue
		}
		prev, ok := s.canon[h]
		if !ok {
			prev = -1
		}
		s.chain = append(s.chain, prev)
		s.canon[h] = j
	}
	return out
}

// canonical returns the canonical operator of out whose signature is
// s.key (hashed to h), or -1.
func (s *scratch) canonical(out *planIndex, h uint64) int32 {
	j, ok := s.canon[h]
	for ok && j >= 0 {
		s.probe = appendSignature(s.probe[:0], out.ops[j], out.inputs(j))
		if bytes.Equal(s.probe, s.key) {
			return j
		}
		j = s.chain[j]
	}
	return -1
}

// appendSignature appends an operator's identity to key: kind, the
// numbers of its (already canonical) inputs, and its parameters. Strings
// are NUL-terminated and lists closed by 0xFF, so distinct parameter
// lists never collide.
func appendSignature(key []byte, o *algebra.Op, ins []int32) []byte {
	str := func(s string) { key = append(append(key, s...), 0) }
	list := func(ss []string) {
		for _, s := range ss {
			str(s)
		}
		key = append(key, 0xFF)
	}
	key = append(key, byte(o.Kind))
	for _, c := range ins {
		key = binary.LittleEndian.AppendUint32(key, uint32(c))
	}
	switch o.Kind {
	case algebra.OpProject:
		for _, p := range o.Proj {
			str(p.New)
			str(p.Old)
		}
	case algebra.OpSelect, algebra.OpRowID:
		str(o.Col)
	case algebra.OpJoin, algebra.OpSemiJoin, algebra.OpDiff, algebra.OpRange:
		list(o.KeyL)
		list(o.KeyR)
	case algebra.OpRowNum:
		str(o.Col)
		for _, s := range o.Order {
			str(s.Col)
			desc := byte(0)
			if s.Desc {
				desc = 1
			}
			key = append(key, desc)
		}
		key = append(key, 0xFF)
		str(o.Part)
	case algebra.OpFun:
		str(o.Col)
		key = append(key, byte(o.Fun), byte(o.Type))
		list(o.Args)
		str(o.TypeName)
	case algebra.OpAggr:
		str(o.Col)
		key = append(key, byte(o.Agg))
		list(o.Args)
		str(o.Part)
		str(o.Sep)
	case algebra.OpStep:
		key = append(key, byte(o.Axis), byte(o.Test.Kind))
		str(o.Test.Name)
	}
	return key
}

// pruneAndFuse runs the demand analysis and rebuilds the DAG with pruned
// and fused projections.
func pruneAndFuse(x *planIndex, s *scratch) (*algebra.Op, error) {
	needed := demandOf(x)

	// Rebuild bottom-up with pruned projections, fused π∘π chains, and
	// order-property rewrites. The rewrites consult the properties of
	// operators of the DAG under construction, which has no index yet:
	// pr numbers the ones it is asked about.
	memo := make([]*algebra.Op, len(x.ops))
	pr := s.props(s.growing())
	var buf [2]*algebra.Op
	for i, o := range x.ops {
		children := buf[:0]
		for _, c := range x.inputs(int32(i)) {
			children = append(children, memo[c])
		}
		out, err := rebuildOp(o, children, needed.of(int32(i)), pr)
		if err != nil {
			return nil, err
		}
		memo[i] = out
	}
	return memo[len(memo)-1], nil
}

// rebuildOp rebuilds operator o over its rebuilt inputs in, applying the
// normalize rewrites. An operator whose inputs came back unchanged and
// that no rewrite touches is handed back as it is: rebuilding it would
// construct an identical operator.
func rebuildOp(o *algebra.Op, in []*algebra.Op, need colSet, pr *props) (*algebra.Op, error) {
	same := true
	for k, c := range in {
		same = same && c == o.In[k]
	}
	switch o.Kind {
	case algebra.OpLit:
		return o, nil
	case algebra.OpProject:
		return rebuildProject(o, in[0], need, same)
	case algebra.OpUnion:
		l, r := in[0], in[1]
		// Pruning may have left the sides with different schemas; align
		// them on the intersection demanded from the union.
		if !sameCols(l.Schema(), r.Schema()) {
			shared := intersect(l.Schema(), r.Schema())
			if len(shared) == 0 {
				return nil, fmt.Errorf("union sides lost all shared columns")
			}
			var err error
			if len(shared) != len(l.Schema()) {
				if l, err = algebra.Project(l, shared...); err != nil {
					return nil, err
				}
			}
			if len(shared) != len(r.Schema()) {
				if r, err = algebra.Project(r, shared...); err != nil {
					return nil, err
				}
			}
		} else if same {
			return o, nil
		}
		return algebra.Union(l, r)
	case algebra.OpDistinct:
		// Key-property rewrite: a strict ordering is a key, and sorted
		// inputs keep duplicates adjacent — so a keyed input has no
		// duplicate rows and δ is the identity.
		if pr.orderingOf(in[0]).strict {
			return in[0], nil
		}
	case algebra.OpRowNum:
		// Order-property rewrite ([3]): a global ϱ whose input is already
		// sorted by its order columns is MonetDB's no-cost mark operator.
		if o.Part == "" {
			ascending := true
			cols := make([]string, 0, len(o.Order))
			for _, s := range o.Order {
				if s.Desc {
					ascending = false
					break
				}
				cols = append(cols, s.Col)
			}
			if ascending && hasPrefix(pr.orderingOf(in[0]).cols, cols) {
				return algebra.RowID(in[0], o.Col)
			}
		}
	}
	if same {
		return o, nil
	}
	switch o.Kind {
	case algebra.OpSelect:
		return algebra.Select(in[0], o.Col)
	case algebra.OpDiff:
		return algebra.Diff(in[0], in[1], o.KeyL, o.KeyR)
	case algebra.OpDistinct:
		return algebra.Distinct(in[0]), nil
	case algebra.OpJoin:
		return algebra.Join(in[0], in[1], o.KeyL, o.KeyR)
	case algebra.OpSemiJoin:
		return algebra.SemiJoin(in[0], in[1], o.KeyL, o.KeyR)
	case algebra.OpCross:
		return algebra.Cross(in[0], in[1])
	case algebra.OpRowNum:
		return algebra.RowNum(in[0], o.Col, o.Order, o.Part)
	case algebra.OpRowID:
		return algebra.RowID(in[0], o.Col)
	case algebra.OpFun:
		f, err := algebra.Fun(in[0], o.Col, o.Fun, o.Args...)
		if err != nil {
			return nil, err
		}
		f.Type, f.TypeName = o.Type, o.TypeName
		return f, nil
	case algebra.OpAggr:
		arg := ""
		if len(o.Args) > 0 {
			arg = o.Args[0]
		}
		a, err := algebra.Aggr(in[0], o.Col, o.Agg, arg, o.Part)
		if err != nil {
			return nil, err
		}
		a.Sep = o.Sep
		return a, nil
	case algebra.OpStep:
		return algebra.Step(in[0], o.Axis, o.Test)
	case algebra.OpDoc:
		return algebra.DocOp(in[0])
	case algebra.OpRoots:
		return algebra.Roots(in[0])
	case algebra.OpElem:
		return algebra.ElemSkel(in[0], o.Skel, in[1:]...)
	case algebra.OpText:
		return algebra.Text(in[0])
	case algebra.OpAttrC:
		return algebra.AttrC(in[0], in[1])
	case algebra.OpRange:
		return algebra.Range(in[0], o.KeyL[0], o.KeyL[1])
	case algebra.OpColl:
		return algebra.CollOp(in[0])
	}
	return nil, fmt.Errorf("unknown operator %s", o.Kind)
}

// rebuildProject prunes the undemanded columns of π o (keeping at least
// one: a zero-column relation has no row representation in the engine),
// fuses it with a child π, and drops it when what is left is the
// identity. same reports that child is o's own input.
func rebuildProject(o, child *algebra.Op, need colSet, same bool) (*algebra.Op, error) {
	pairs := o.Proj
	if need.reached {
		kept := 0
		for pos := range o.Proj {
			if need.has(pos) {
				kept++
			}
		}
		if kept < len(o.Proj) {
			pairs = make([]algebra.ProjPair, 0, max(kept, 1))
			for pos, p := range o.Proj {
				if need.has(pos) {
					pairs = append(pairs, p)
				}
			}
			if len(pairs) == 0 {
				pairs = append(pairs, o.Proj[0])
			}
		}
	}
	if child.Kind == algebra.OpProject {
		fused := make([]algebra.ProjPair, len(pairs))
		for i, p := range pairs {
			k := slices.IndexFunc(child.Proj, func(c algebra.ProjPair) bool { return c.New == p.Old })
			if k < 0 {
				return nil, fmt.Errorf("π: input lacks column %q", p.Old)
			}
			fused[i] = algebra.ProjPair{New: p.New, Old: child.Proj[k].Old}
		}
		pairs, child, same = fused, child.In[0], false
	}
	// Identity projection: same names, same order, full schema.
	if identityProjection(pairs, child.Schema()) {
		return child, nil
	}
	if same && len(pairs) == len(o.Proj) {
		return o, nil
	}
	return algebra.ProjectPairs(child, pairs)
}

func identityProjection(pairs []algebra.ProjPair, schema []string) bool {
	if len(pairs) != len(schema) {
		return false
	}
	for i, p := range pairs {
		if p.New != p.Old || p.New != schema[i] {
			return false
		}
	}
	return true
}

func sameCols(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for _, c := range b {
		if !slices.Contains(a, c) {
			return false
		}
	}
	return true
}

func intersect(a, b []string) []string {
	var out []string
	for _, c := range a {
		if slices.Contains(b, c) {
			out = append(out, c)
		}
	}
	return out
}
