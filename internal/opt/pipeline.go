package opt

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// The rewrite pipeline: one worklist over one DAG.
//
// A run interns the compiled plan once (enter): every operator is filed
// under its signature (appendSignature) in a table that lives for the
// run, and every operator a rule builds is looked up before it joins the
// plan, so common subexpression elimination is an invariant of the
// working DAG, not a pass. Constructors (ε, text, attribute) make new
// nodes on every execution and are never shared.
//
// The five rules (opt.go) run from a worklist seeded with the whole plan
// in index order: the local ones first, then — once none is left to run
// — the isolation splice. A rule rewrites its operator in place or makes
// its consumers read another one, and only what depends on the change is
// redone: the operator is refiled (and shared, if it now equals
// another), the property memos above it are dropped, its consumers are
// rebuilt where its schema narrowed, the analyses mark what they must
// re-derive before a rule next reads them, and the operators whose rules
// read what changed are queued. Nothing walks the whole DAG again.
//
// Every rule strictly shrinks something — the operator count, a schema's
// width, one ϱ becoming a mark — so the worklist empties on its own. A
// backstop on the number of pops guards against a rewrite bug turning
// into an endless loop; a run it stops carries the note "limit reached".
// Cleanup then runs once: the global size guard and validation. The
// trace is one PassStat for the worklist (its rewrites, per rule in the
// note) and one for cleanup.

// popsPerOp bounds the worklist: a run pops at most this many operators
// per operator of its interned input (XMark, the Table 2 corpus and the
// random plans of the tests need at most 5).
const popsPerOp = 32

// PassStat records one pass execution for the trace.
type PassStat struct {
	Round         int    // 1 for the worklist pass, 0 for cleanup, which runs once after it
	Pass          string // rewrite, cleanup
	OpsIn, OpsOut int    // the plan's operator counts before and after the pass
	Rewrites      int    // the rules the pass applied
	Note          string // the per-rule counts, the backstop's and the size guard's decision
}

// Result is a pipeline run: the rewritten plan plus the per-pass trace.
type Result struct {
	Plan  *algebra.Op
	Trace []PassStat
}

// TraceString renders the per-pass trace, one line per pass.
func (r Result) TraceString() string {
	var sb strings.Builder
	for _, s := range r.Trace {
		round := "final"
		if s.Round > 0 {
			round = fmt.Sprintf("%d", s.Round)
		}
		fmt.Fprintf(&sb, "round %-5s %-10s %4d → %4d ops", round, s.Pass, s.OpsIn, s.OpsOut)
		if s.Rewrites > 0 {
			fmt.Fprintf(&sb, "  (%d rewrites)", s.Rewrites)
		}
		if s.Note != "" {
			fmt.Fprintf(&sb, "  %s", s.Note)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Pipeline rewrites the DAG rooted at root and returns the plan with its
// trace. The input DAG is not mutated, and the result never has more
// operators than the CSE-shared input.
func Pipeline(root *algebra.Op) (Result, error) {
	return runPipeline(root, popsPerOp, nil)
}

// Optimize is Pipeline's plan without its trace. On tiny plans, where
// the union-alignment projections can outweigh what pruning saves, that
// is the CSE-shared input.
func Optimize(root *algebra.Op) (*algebra.Op, error) {
	res, err := Pipeline(root)
	return res.Plan, err
}

// runPipeline is Pipeline with its pop budget per operator and a hook
// called after every rule that fired and once when the worklist is
// done: the tests' seams to the backstop and the incrementally
// maintained state.
func runPipeline(root *algebra.Op, perOp int, check func(r *rewriter)) (Result, error) {
	r := enter(root)
	r.check = check
	opsIn := r.x.live()
	cut := r.run(perOp * opsIn)
	if r.err != nil {
		return Result{}, r.err
	}
	if check != nil {
		check(r)
	}
	var fired []string
	total := 0
	for k, n := range r.fired {
		if n > 0 {
			fired = append(fired, fmt.Sprintf("%s %d", ruleNames[k], n))
		}
		total += n
	}
	note := strings.Join(fired, ", ")
	if cut {
		note += "; limit reached"
	}
	opsOut := r.x.live()
	trace := []PassStat{{Round: 1, Pass: "rewrite", OpsIn: opsIn, OpsOut: opsOut, Rewrites: total, Note: note}}

	plan, guard := r.x.root(), ""
	if opsOut > opsIn {
		plan, guard = enter(root).x.root(), "size guard: kept CSE-only plan"
	}
	if err := algebra.Validate(plan); err != nil {
		return Result{}, fmt.Errorf("optimizer pipeline produced an invalid plan: %w", err)
	}
	trace = append(trace, PassStat{Pass: "cleanup", OpsIn: opsOut, OpsOut: min(opsOut, opsIn), Note: guard})
	return Result{Plan: plan, Trace: trace}, nil
}

// rewriter is one pipeline run: the working DAG with its index, its
// interning table, the analyses over it and the worklist.
type rewriter struct {
	x     *planIndex
	pr    *props
	need  *demand
	sense *orderSense

	local  queue // operators for the local rules, lowest number first
	splice queue // operators to try the isolation splice on

	// The interning table: a signature hash → the live operator filed
	// last under it, whose slot links to the one filed before it.
	seed       maphash.Seed
	canon      map[uint64]int32
	slots      []slot
	key, probe []byte

	fired [numRules]int
	stack []int32
	err   error
	check func(r *rewriter)
}

// slot is where an operator is filed.
type slot struct {
	hash  uint64
	chain int32
	filed bool
}

// enter interns the DAG rooted at root: it numbers the input once, files
// every operator under its signature and clones the interior operators
// that are not duplicates — the rules rewrite in place, and the caller's
// plan stays untouched. Leaves are shared (a plan that reduces to one
// literal returns that literal). A duplicate keeps its number, dead; its
// consumers read the operator it duplicates.
func enter(root *algebra.Op) *rewriter {
	x := newPlanIndex(root)
	n := len(x.ops)
	r := &rewriter{
		x: x, seed: maphash.MakeSeed(), canon: make(map[uint64]int32, n), slots: make([]slot, n),
		local: newQueue(n, false), splice: newQueue(n, false),
	}
	x.dead, x.cons = make([]bool, n), make([][]int32, n)
	alias := make([]int32, n)
	lits := make(map[*bat.Table]int32)
	for i, o := range x.ops {
		i := int32(i)
		ins := x.inputs(i)
		for k, c := range ins {
			ins[k] = alias[c]
		}
		alias[i] = i
		j, h := int32(-1), uint64(0)
		if o.Kind == algebra.OpLit {
			// Literal tables are shared by identity.
			if k, ok := lits[o.Lit]; ok {
				j = k
			} else {
				lits[o.Lit] = i
			}
		} else {
			j, h = r.find(o, ins)
		}
		if j >= 0 {
			alias[i] = j
			x.dead[i] = true
			x.nDead++
			continue
		}
		if len(ins) > 0 {
			cp := new(algebra.Op)
			*cp = *o
			cp.In = make([]*algebra.Op, len(ins))
			for k, c := range ins {
				cp.In[k] = x.ops[c]
				x.cons[c] = append(x.cons[c], i)
			}
			x.ops[i] = cp
		}
		r.fileAt(i, h)
		r.local.push(i)
		r.splice.push(i)
	}
	r.pr = newProps(x)
	r.need = newDemand(x)
	r.sense = newOrderSense(x, r.pr)
	return r
}

// run pops the worklist until it is empty or budget pops are spent, and
// reports the latter. The local rules run first; once none is left to
// run, splices run until none is left either — an order proof holds for
// the shape it was derived on, so a splice is not held up by what the
// last one made local rules do.
func (r *rewriter) run(budget int) (cut bool) {
	splicing := false
	for pops := 0; r.err == nil; pops++ {
		i := int32(-1)
		if splicing {
			i = r.nextSplice()
		}
		if splicing = i >= 0; !splicing {
			r.need.settle(r.narrowed)
			if i = r.local.pop(); i < 0 {
				if i = r.nextSplice(); i < 0 {
					return false
				}
				splicing = true
			}
		}
		if pops == budget {
			return true
		}
		fired := false
		switch {
		case r.x.dead[i]:
		case splicing:
			fired = r.isolate(i)
		default:
			fired = r.rewrite(i, false)
		}
		if fired && r.check != nil {
			r.check(r)
		}
	}
	return false
}

// nextSplice pops the next projection to try the splice on, or -1.
func (r *rewriter) nextSplice() int32 {
	r.sense.settle(r.splice.push)
	return r.splice.pop()
}

// narrowed queues a projection whose demand shrank for pruning.
func (r *rewriter) narrowed(i int32) {
	if r.x.ops[i].Kind == algebra.OpProject {
		r.local.push(i)
	}
}

// install puts out — what a rule built for operator i — in i's place: an
// operator the plan has takes over i's consumers; a new one is written
// over i, which keeps its number.
func (r *rewriter) install(i int32, out *algebra.Op) {
	x := r.x
	if j := r.near(i, out); j >= 0 {
		r.replace(i, j)
		return
	}
	var buf [2]int32
	ids := buf[:0]
	for k, c := range out.In {
		j := r.near(i, c)
		if j < 0 {
			j = r.add(c, i)
			out.In[k] = x.ops[j]
		}
		ids = append(ids, j)
	}
	o := x.ops[i]
	narrowed := !slices.Equal(o.Schema(), out.Schema())
	*o = *out
	if narrowed {
		r.need.pull(i) // its words follow its schema
	}
	r.relink(i, ids)
	r.touched(i)
	if narrowed {
		for _, p := range consumers(x, i) {
			if !x.dead[p] {
				r.rewrite(p, true)
			}
		}
	}
	if !x.dead[i] {
		r.refile(i)
	}
}

// replace makes every consumer of operator i read j instead, which
// leaves i out of the plan. Where j's schema is narrower than i's, the
// consumers are rebuilt.
func (r *rewriter) replace(i, j int32) {
	x := r.x
	narrowed := !slices.Equal(x.ops[i].Schema(), x.ops[j].Schema())
	if i == x.top {
		x.top = j
		r.need.dirty.push(j)
		r.sense.dirty.push(j)
	}
	// Every consumer reads j before any is rewritten: a rewrite can make
	// a consumer stop reading j, which must not take j out of the plan
	// while others are still to be moved onto it.
	cons := consumers(x, i)
	for _, p := range cons {
		var buf [2]int32
		ids := append(buf[:0], x.inputs(p)...)
		for e, c := range ids {
			if c == i {
				ids[e] = j
			}
		}
		r.relink(p, ids)
	}
	if !x.dead[i] {
		r.kill(i)
	}
	for _, p := range cons {
		if !x.dead[p] && !(narrowed && r.rewrite(p, true)) {
			r.touched(p)
			r.refile(p)
		}
	}
}

// consumers lists the operators reading operator i, each once.
func consumers(x *planIndex, i int32) []int32 {
	cons := slices.Clone(x.cons[i])
	slices.Sort(cons)
	return slices.Compact(cons)
}

// touched drops what was derived from operator i, marks the analyses
// that read it dirty and queues it for the rules.
func (r *rewriter) touched(i int32) {
	r.invalidate(i)
	for _, c := range r.x.inputs(i) {
		r.need.dirty.push(c)
		r.sense.dirty.push(c)
	}
	r.need.dirty.push(i)
	r.local.push(i)
	r.splice.push(i)
}

// invalidate drops the property memos of operator i and of every
// operator above it that derived its own from them. The rules that read
// a dropped memo are queued: δ elimination and ϱ → mark on its
// consumers, the splice on theirs (proof (1) reads the properties of a
// projection's input's input); order sensitivity re-pulls it.
func (r *rewriter) invalidate(i int32) {
	x := r.x
	st := append(r.stack[:0], i)
	for len(st) > 0 {
		j := st[len(st)-1]
		st = st[:len(st)-1]
		r.pr.drop(j)
		r.sense.dirty.push(j)
		for _, p := range x.cons[j] {
			r.local.push(p)
			for _, q := range x.cons[p] {
				r.splice.push(q)
			}
			if r.pr.derived(p) {
				st = append(st, p)
			}
		}
	}
	r.stack = st
}

// refile files operator i under its changed signature, sharing it with
// the operator filed under it already if there is one: the lower number
// stays.
func (r *rewriter) refile(i int32) {
	r.unfile(i)
	j, h := r.find(r.x.ops[i], r.x.inputs(i))
	switch {
	case j < 0:
		r.fileAt(i, h)
	case j < i:
		r.replace(i, j)
	default:
		r.unfile(j)
		r.fileAt(i, h)
		r.replace(j, i)
	}
}

// relink points operator p's inputs at ids (p's In already reads
// them), linking every new edge before unlinking an old one, so nothing
// p still reads drops out of the plan on the way.
func (r *rewriter) relink(p int32, ids []int32) {
	x := r.x
	ins := x.inputs(p)
	var buf [2]int32
	old := append(buf[:0], ins...)
	for k, j := range ids {
		if ins[k] != j {
			ins[k] = j
			x.ops[p].In[k] = x.ops[j]
			x.cons[j] = append(x.cons[j], p)
			r.need.dirty.push(j)
			r.sense.dirty.push(j)
		}
	}
	for k, c := range old {
		if c != ids[k] {
			r.unlink(c, p)
		}
	}
}

// unlink removes the consumer edge p → c; an operator left without
// consumers drops out of the plan.
func (r *rewriter) unlink(c, p int32) {
	x := r.x
	k := slices.Index(x.cons[c], p)
	x.cons[c] = slices.Delete(x.cons[c], k, k+1)
	if len(x.cons[c]) > 0 || c == x.top {
		r.need.dirty.push(c)
		r.sense.dirty.push(c)
		return
	}
	r.kill(c)
}

// kill takes operator i out of the plan, and with it every input it was
// the last consumer of.
func (r *rewriter) kill(i int32) {
	r.x.dead[i] = true
	r.x.nDead++
	r.unfile(i)
	for _, c := range r.x.inputs(i) {
		r.unlink(c, i)
	}
}

// add files an operator a rule built for operator i — one of union
// alignment's projections — and returns its number, or the number of
// the equal operator the plan has.
func (r *rewriter) add(o *algebra.Op, i int32) int32 {
	x := r.x
	var buf [2]int32
	ins := buf[:0]
	for _, c := range o.In {
		ins = append(ins, r.near(i, c))
	}
	j, h := r.find(o, ins)
	if j >= 0 {
		return j
	}
	j = x.add(o, ins)
	x.cons = append(x.cons, nil)
	x.dead = append(x.dead, false)
	r.slots = append(r.slots, slot{})
	r.pr.memo = append(r.pr.memo, propMemo{})
	r.need.grow()
	r.sense.grow()
	r.local.grow()
	r.splice.grow()
	r.fileAt(j, h)
	for _, c := range ins {
		x.cons[c] = append(x.cons[c], j)
	}
	r.touched(j)
	return j
}

// near finds o among the inputs of operator i and theirs — where
// whatever a rule builds for i reads from — or returns -1.
func (r *rewriter) near(i int32, o *algebra.Op) int32 {
	x := r.x
	for _, c := range x.inputs(i) {
		if x.ops[c] == o {
			return c
		}
	}
	for _, c := range x.inputs(i) {
		for _, d := range x.inputs(c) {
			if x.ops[d] == o {
				return d
			}
		}
	}
	return -1
}

// find returns the live operator filed under the signature of o over the
// input numbers ins, or -1, and the signature's hash. A hash hit is
// confirmed by comparing signatures, so a collision costs a comparison,
// never a wrong share.
func (r *rewriter) find(o *algebra.Op, ins []int32) (int32, uint64) {
	if constructs(o.Kind) {
		return -1, 0
	}
	r.key = appendSignature(r.key[:0], o, ins)
	h := maphash.Bytes(r.seed, r.key)
	return r.lookup(h), h
}

// lookup returns the live operator filed under hash h whose signature is
// r.key, or -1.
func (r *rewriter) lookup(h uint64) int32 {
	j, ok := r.canon[h]
	for ok && j >= 0 {
		r.probe = appendSignature(r.probe[:0], r.x.ops[j], r.x.inputs(j))
		if bytes.Equal(r.probe, r.key) {
			return j
		}
		j = r.slots[j].chain
	}
	return -1
}

// fileAt files operator i under hash h.
func (r *rewriter) fileAt(i int32, h uint64) {
	if k := r.x.ops[i].Kind; constructs(k) || k == algebra.OpLit {
		return
	}
	prev, ok := r.canon[h]
	if !ok {
		prev = -1
	}
	r.slots[i] = slot{hash: h, chain: prev, filed: true}
	r.canon[h] = i
}

// unfile takes operator i out of the table.
func (r *rewriter) unfile(i int32) {
	s := &r.slots[i]
	if !s.filed {
		return
	}
	s.filed = false
	if r.canon[s.hash] == i {
		r.canon[s.hash] = s.chain
		return
	}
	for j := r.canon[s.hash]; j >= 0; j = r.slots[j].chain {
		if r.slots[j].chain == i {
			r.slots[j].chain = s.chain
			return
		}
	}
}

// constructs reports the operator kinds that make new nodes on every
// execution: two with the same inputs are two results, never one —
// <a/> is <a/> is false.
func constructs(k algebra.OpKind) bool {
	return k == algebra.OpElem || k == algebra.OpText || k == algebra.OpAttrC
}
