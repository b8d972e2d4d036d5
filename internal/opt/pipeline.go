package opt

import (
	"fmt"
	"strings"

	"pathfinder/internal/algebra"
)

// The staged rewrite pipeline: an explicit multi-pass driver. Each round
// runs
//
//	normalize  — CSE + projection fusion/pruning + local order rewrites
//	analyze    — join-graph classification (trace only, no rewrites)
//	isolate    — join graph isolation (in-place order-proof splices)
//
// until a round changes nothing, so the last round is always a pure
// confirmation round: the XMark plans take three or four (q08 removes
// 18+9, 9+2, then 1+0 operators and confirms in a fourth — the goldens
// under testdata/plans show every round). maxRounds is a safety net; a
// run that hits it says so in the trace. Then two final passes run once:
//
//	properties — the marker that the rounds are over: whoever consumes
//	             the converged plan (physical lowering) derives its
//	             order/denseness/key annotations from scratch
//	cleanup    — final CSE, the global size guard, and validation
//
// Every pass appends a PassStat; `pf -show opt` prints the trace so the
// collapse is observable per pass, not just in the output plan.

// maxRounds bounds the fixed-point loop. Isolation strictly removes
// operators and normalization never grows the plan (size guard), so the
// loop terminates on its own; the bound is a backstop against a rewrite
// bug turning into an infinite loop. A run stopped by it carries the
// note "round limit reached" on its last isolate pass.
const maxRounds = 8

// PassStat records one pass execution for the trace.
type PassStat struct {
	// Round is the fixed-point iteration (1-based); 0 marks the final
	// passes that run once after convergence.
	Round int
	// Pass is the pass name: normalize, analyze, isolate, properties,
	// cleanup.
	Pass string
	// OpsIn and OpsOut are the plan's operator counts before and after
	// the pass.
	OpsIn, OpsOut int
	// Rewrites counts the rewrites the pass applied (0 for analysis-only
	// passes).
	Rewrites int
	// Note carries pass-specific detail (the join-graph census, the
	// property count, guard decisions).
	Note string
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

// Pipeline runs the staged pipeline on the DAG rooted at root and
// returns the rewritten plan with its trace. The input DAG is not
// mutated (the isolation pass works on a private clone), and the result
// never has more operators than the CSE-shared input.
func Pipeline(root *algebra.Op) (Result, error) {
	return runPipeline(root, maxRounds, isolate, true)
}

// runPipeline is Pipeline with its round limit and isolation pass as
// parameters — the seams the tests use to force the backstop and to run
// the reference isolation through the same driver. Without notes the
// analyze passes leave their trace notes empty and skip the join-graph
// census that only feeds them; nothing else reads it, so the plan and
// every count of the trace are the same.
//
// Every pass works over the plan index of the DAG version it is handed
// (index.go): cse emits the index of what it produces, the rebuilt DAG
// of the normalize pass and a spliced plan are walked once, and the
// operator counts of the trace are the sizes of those indexes.
func runPipeline(root *algebra.Op, limit int, isolate isolatePass, notes bool) (Result, error) {
	var s scratch
	// Baseline for the global size guard; shares nodes with the input.
	initial := s.cse(s.index(root))
	// The isolation pass splices edges in place, and cse/normalize can
	// hand back original input nodes — clone before any in-place work so
	// the caller's DAG stays untouched.
	work := clonePlan(initial)

	var trace []PassStat
	for round := 1; ; round++ {
		opsIn := work.live()
		n, err := normalize(work, &s)
		if err != nil {
			return Result{}, err
		}
		work = n
		opsNorm := work.live()
		trace = append(trace, PassStat{
			Round: round, Pass: "normalize",
			OpsIn: opsIn, OpsOut: opsNorm, Rewrites: opsIn - opsNorm,
		})

		pr := s.props(work)
		analyze := PassStat{Round: round, Pass: "analyze", OpsIn: opsNorm, OpsOut: opsNorm}
		if notes {
			analyze.Note = analyzeJoinGraph(work, pr).note()
		}
		trace = append(trace, analyze)

		iso := isolate(work, pr, nil)
		stat := PassStat{
			Round: round, Pass: "isolate",
			OpsIn: opsNorm, OpsOut: work.live(), Rewrites: iso,
		}
		converged := iso == 0 && opsNorm == opsIn
		if !converged && round == limit {
			stat.Note = "round limit reached"
		}
		trace = append(trace, stat)
		if iso > 0 {
			// Spliced-out operators are still numbered and a numbering
			// operator that kept another consumer sits too early for Topo
			// order: renumber for the passes that follow.
			work = s.index(work.root())
		}
		if converged || round == limit {
			break
		}
	}

	// The converged plan's properties are re-derived from scratch by
	// whoever consumes it (physical lowering calls Properties): no claim
	// memoized during rewriting survives into what lowering sees. The
	// trace line stays as the marker between the rounds and the cleanup.
	opsConv := work.live()
	trace = append(trace, PassStat{
		Pass: "properties", OpsIn: opsConv, OpsOut: opsConv,
		Note: fmt.Sprintf("%d operators annotated", opsConv),
	})

	// Cleanup: final CSE across everything isolation exposed, then the
	// global size guard against the CSE-only input.
	final := s.cse(work)
	note := ""
	if final.live() > initial.live() {
		final = initial
		note = "size guard: kept CSE-only plan"
	}
	if err := algebra.Validate(final.root()); err != nil {
		return Result{}, fmt.Errorf("optimizer pipeline produced an invalid plan: %w", err)
	}
	trace = append(trace, PassStat{
		Pass: "cleanup", OpsIn: opsConv, OpsOut: final.live(),
		Rewrites: opsConv - final.live(), Note: note,
	})
	return Result{Plan: final.root(), Trace: trace}, nil
}

// isolatePass is the signature of the isolation pass (isolate.go).
type isolatePass func(idx *planIndex, pr *props, spliced func(pi int32, sense *orderSense)) int

// normalize is one CSE + prune/fuse sweep with the per-round size guard
// (validation is the caller's: the pipeline validates once at the end).
func normalize(work *planIndex, s *scratch) (*planIndex, error) {
	shared := s.cse(work)
	pruned, err := pruneAndFuse(shared, s)
	if err != nil {
		return nil, err
	}
	r := s.cse(s.index(pruned))
	if r.live() > shared.live() {
		r = shared
	}
	return r, nil
}

// clonePlan deep-copies the interior of an indexed DAG (preserving
// sharing, and the numbering: the clone's index is the original's with
// the copies in place) so in-place passes cannot mutate the caller's
// plan. Leaves are shared: the only in-place mutation anywhere in the
// pipeline is rewiring an operator's In edges, and leaves have none.
// (Keeping leaves intact also preserves the long-standing contract that
// optimizing a plan that reduces to a single literal returns that
// literal itself.)
func clonePlan(x *planIndex) *planIndex {
	out := &planIndex{ops: make([]*algebra.Op, len(x.ops)), inStart: x.inStart, in: x.in}
	for i, o := range x.ops {
		if len(o.In) == 0 {
			out.ops[i] = o
			continue
		}
		cp := *o
		cp.In = make([]*algebra.Op, len(o.In))
		for k, c := range x.inputs(int32(i)) {
			cp.In[k] = out.ops[c]
		}
		out.ops[i] = &cp
	}
	return out
}
