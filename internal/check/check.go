// Package check is the static-analysis layer for plans: it re-verifies
// the invariants every stage of the compiler claims and every later stage
// silently relies on. Three trust boundaries are covered:
//
//   - Schema well-formedness of logical DAGs (Logical): every consumed
//     column is produced upstream, declared schemas match what the
//     operator actually computes, and the light type inference flags
//     columns consumed at a kind the producer provably never emits.
//   - Order/denseness soundness (Properties): the sortedness, strictness
//     and denseness bits the optimizer publishes (internal/opt) — the bits
//     its rewrites, rownum elimination first, rely on — are cross-checked
//     against an independent conservative re-derivation.
//   - Physical preconditions (Physical): the lowering is one node per
//     operator in topological order with the right result slots, every
//     theta join is a unit the executor may run as one, and every
//     streamed ε's nodes reach only the serializer; the Properties audit
//     runs over the lowered plan's operators too. Kernel choices are no
//     claim of the plan: the executor makes them from the rows.
//
// A validator failure means an upstream pass produced a plan whose
// silent assumptions do not hold — the class of bug that yields quietly
// wrong answers, not crashes. `pf -check` runs all three layers;
// the differential tests run them on every compiled plan; the engine's
// Check mode re-asserts the claims on live intermediate tables.
package check

import (
	"fmt"
	"sort"
	"strings"

	"pathfinder/internal/algebra"
	"pathfinder/internal/opt"
	"pathfinder/internal/physical"
)

// Diag is one validator finding. Op numbers refer to the bottom-up
// topological order of the plan (algebra.Topo), so diagnostics are stable
// across runs and renderable as goldens.
type Diag struct {
	// Class is the invariant family: "structure", "schema", "type",
	// "order", "dense", "physical", "thetajoin", or "stream".
	Class string
	// Op locates the finding: "#3 join" style, topological index + kind.
	Op string
	// Msg states what claim failed and why.
	Msg string
}

func (d Diag) String() string {
	return fmt.Sprintf("[%s] %s: %s", d.Class, d.Op, d.Msg)
}

// Render formats diagnostics one per line, stably ordered (topological
// index first, then class, then message) — the shape the golden tests pin.
func Render(diags []Diag) string {
	sorted := append([]Diag(nil), diags...)
	sort.SliceStable(sorted, func(a, b int) bool {
		if sorted[a].Op != sorted[b].Op {
			return sorted[a].Op < sorted[b].Op
		}
		if sorted[a].Class != sorted[b].Class {
			return sorted[a].Class < sorted[b].Class
		}
		return sorted[a].Msg < sorted[b].Msg
	})
	var sb strings.Builder
	for _, d := range sorted {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Error folds diagnostics into a single error; nil when the plan is clean.
func Error(diags []Diag) error {
	if len(diags) == 0 {
		return nil
	}
	return fmt.Errorf("plan validation failed (%d finding(s)):\n%s",
		len(diags), strings.TrimRight(Render(diags), "\n"))
}

// walker numbers operators in bottom-up topological order so every
// diagnostic names its operator stably. The number of an operator is only
// looked up to name a finding, so the table is built on the first one.
type walker struct {
	order []*algebra.Op
	index map[*algebra.Op]int
}

func newWalker(root *algebra.Op) *walker {
	return &walker{order: algebra.Topo(root)}
}

func (w *walker) name(o *algebra.Op) string {
	if w.index == nil {
		w.index = make(map[*algebra.Op]int, len(w.order))
		for i, o := range w.order {
			w.index[o] = i
		}
	}
	if i, ok := w.index[o]; ok {
		return fmt.Sprintf("#%d %s", i, o.Kind)
	}
	return fmt.Sprintf("#? %s", o.Kind)
}

// Logical validates the logical DAG rooted at root: operator arity,
// schema recomputation against the declared schemas, and the light type
// pass. It subsumes algebra.Validate and reports every finding instead of
// stopping at the first.
func Logical(root *algebra.Op) []Diag { return logical(newWalker(root)) }

func logical(w *walker) []Diag {
	var diags []Diag
	types := newTypePass(w)
	for _, o := range w.order {
		diags = append(diags, checkArity(w, o)...)
		if len(o.In) != arityOf(o) {
			continue // schema recomputation needs the declared inputs
		}
		diags = append(diags, checkSchema(w, o)...)
		diags = append(diags, types.check(o)...)
	}
	return diags
}

// Properties cross-checks the optimizer's published order/denseness bits
// against the validator's independent re-derivation: every claim must be
// implied by what the conservative analysis can prove. props is the map
// opt.Properties(root) derives, or a forged one.
func Properties(root *algebra.Op, props map[*algebra.Op]opt.Props) []Diag {
	w := newWalker(root)
	g := rederive(w.order)
	var diags []Diag
	for _, o := range w.order {
		p, ok := props[o]
		if !ok {
			diags = append(diags, Diag{Class: "order", Op: w.name(o),
				Msg: "no properties published for operator"})
			continue
		}
		diags = append(diags, justifyProps(w, o, p, g[o])...)
	}
	return diags
}

// justifyProps verifies one operator's published properties against the
// re-derived guarantee.
func justifyProps(w *walker, o *algebra.Op, p opt.Props, g guarantee) []Diag {
	var diags []Diag
	if len(p.Sorted) > 0 && !hasPrefix(g.sorted, p.Sorted) {
		diags = append(diags, Diag{Class: "order", Op: w.name(o),
			Msg: fmt.Sprintf("claims sorted(%s) but re-derivation proves only sorted(%s)",
				strings.Join(p.Sorted, ","), strings.Join(g.sorted, ","))})
	}
	if p.Strict && len(p.Sorted) > 0 &&
		!(g.strict && len(p.Sorted) == len(g.sorted) && hasPrefix(g.sorted, p.Sorted)) {
		diags = append(diags, Diag{Class: "order", Op: w.name(o),
			Msg: fmt.Sprintf("claims key(%s) but re-derivation cannot prove the prefix duplicate-free",
				strings.Join(p.Sorted, ","))})
	}
	for _, c := range p.Dense {
		if !g.dense[c] {
			diags = append(diags, Diag{Class: "dense", Op: w.name(o),
				Msg: fmt.Sprintf("claims dense(%s) but re-derivation cannot prove 1..n", c)})
		}
	}
	return diags
}

// Plan runs every validation layer over one logical plan: Logical on the
// DAG, then Physical on a fresh lowering, which also justifies the
// properties opt.PlanProperties derives for every operator against the
// re-derivation — the Properties check of the whole plan. This is the
// entry point `pf -check` and the differential tests use for plans that
// came out of the compiler.
func Plan(root *algebra.Op) []Diag {
	if diags := Logical(root); len(diags) > 0 {
		// A malformed schema makes property inference meaningless; stop.
		return diags
	}
	return Physical(physical.Lower(root))
}

// Lowered is Plan over a lowering the caller already holds — the one the
// engine caches and will execute: Logical on its DAG, then Physical on
// the lowering itself and the optimizer's properties for its operators,
// over one topological walk. The service checks every prepared plan
// through it, so a plan is lowered once.
func Lowered(p *physical.Plan) []Diag {
	if p == nil || p.Root == nil || len(p.Nodes) == 0 {
		return Physical(p)
	}
	w := newWalker(p.Root.Op)
	if diags := logical(w); len(diags) > 0 {
		return diags
	}
	return physicalPlan(w, p)
}

// hasPrefix reports whether want is a prefix of have.
func hasPrefix(have, want []string) bool {
	if len(want) > len(have) {
		return false
	}
	for i, c := range want {
		if have[i] != c {
			return false
		}
	}
	return true
}
