package opt

import (
	"fmt"
	"strings"

	"pathfinder/internal/algebra"
)

// The staged rewrite pipeline: an explicit multi-pass driver. Each round
// runs
//
//	normalize — CSE, demand pruning of projections, union alignment and
//	            the local order rewrites (ϱ → mark, δ elimination)
//	isolate   — join graph isolation (in-place order-proof splices)
//
// until a round rewrites nothing, so the last round is always a pure
// confirmation round: the XMark plans take up to four (the goldens under
// testdata/plans show every round). maxRounds is a safety net; a run
// that hits it says so in the trace. Then one final pass runs once:
//
//	cleanup — final CSE, the global size guard, and validation
//
// Every pass appends a PassStat; `pf -show opt` prints the trace so the
// collapse is observable per pass, not just in the output plan. Optimize
// runs the same pipeline and drops the trace.

// maxRounds bounds the fixed-point loop. Isolation strictly removes
// operators, and normalization only prunes columns, aligns the unions
// that pruning left uneven and swaps ϱ for mark or δ for its input, each
// at most once per operator, so the loop terminates on its own; the
// bound is a backstop against a rewrite bug turning into an infinite
// loop. A run stopped by it carries the note "round limit reached" on
// its last isolate pass.
const maxRounds = 8

// PassStat records one pass execution for the trace.
type PassStat struct {
	// Round is the fixed-point iteration (1-based); 0 marks the final
	// passes that run once after convergence.
	Round int
	// Pass is the pass name: normalize, isolate, cleanup.
	Pass string
	// OpsIn and OpsOut are the plan's operator counts before and after
	// the pass.
	OpsIn, OpsOut int
	// Rewrites counts the rewrites the pass applied: the operators
	// normalize and cleanup removed, the splices of isolate.
	Rewrites int
	// Note carries the round limit and the size guard's decision.
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
	return runPipeline(root, maxRounds, isolate)
}

// runPipeline is Pipeline with its round limit and isolation pass as
// parameters — the seams the tests use to force the backstop and to run
// the reference isolation through the same driver.
//
// Every pass works over the plan index of the DAG version it is handed
// (index.go): cse emits the index of what it produces, the rebuilt DAG
// of the normalize pass and a spliced plan are walked once, and the
// operator counts of the trace are the sizes of those indexes.
func runPipeline(root *algebra.Op, limit int, isolate isolatePass) (Result, error) {
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
		n, rewrote, err := normalize(work, &s)
		if err != nil {
			return Result{}, err
		}
		work = n
		opsNorm := work.live()
		trace = append(trace, PassStat{
			Round: round, Pass: "normalize",
			OpsIn: opsIn, OpsOut: opsNorm, Rewrites: max(opsIn-opsNorm, 0),
		})

		iso := isolate(work, s.props(work), nil)
		stat := PassStat{
			Round: round, Pass: "isolate",
			OpsIn: opsNorm, OpsOut: work.live(), Rewrites: iso,
		}
		converged := iso == 0 && !rewrote
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

	// Cleanup: final CSE across everything isolation exposed, then the
	// global size guard against the CSE-only input.
	opsConv := work.live()
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
// rewrote reports that the sweep rewrote an operator, which a rewrite
// that only swaps one operator for another (ϱ → mark) does without
// changing the operator count.
func normalize(work *planIndex, s *scratch) (r *planIndex, rewrote bool, err error) {
	shared := s.cse(work)
	pruned, err := pruneAndFuse(shared, s)
	if err != nil {
		return nil, false, err
	}
	if pruned == shared.root() {
		return shared, shared.live() < work.live(), nil
	}
	return s.cse(s.index(pruned)), true, nil
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
