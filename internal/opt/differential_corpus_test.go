package opt_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/check"
	"pathfinder/internal/corpus"
	"pathfinder/internal/engine"
	"pathfinder/internal/opt"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
)

// TestCorpusMatchesReference runs the reference differential
// (opt.CheckAgainstReference: the incremental state after every rule,
// the plan against the round driver's, strictly) over every compiled
// plan of the two fixed corpora, and has internal/check re-validate
// each plan.
func TestCorpusMatchesReference(t *testing.T) {
	splices := 0
	for _, plan := range compileAll(t, xmarkTexts(), "xmark.xml") {
		out, _, n := opt.CheckAgainstReference(t, plan, true)
		checkClean(t, out)
		splices += n
	}
	// 65 splices over q01–q20, as many as the round driver made.
	if splices != 65 {
		t.Errorf("XMark q01–q20 took %d splices, the round driver 65", splices)
	}
	for _, plan := range compileAll(t, corpus.Dialect, "auction.xml") {
		out, _, _ := opt.CheckAgainstReference(t, plan, true)
		checkClean(t, out)
	}
}

// TestRandomPlansMatchReference runs the differential, strictly, over
// seeded random DAGs: shapes the compiler never emits (numbering towers
// under shared projections, unions of towers, constructors over ties)
// but the pipeline must still handle as the round driver did.
func TestRandomPlansMatchReference(t *testing.T) {
	splices, plans := 0, 300
	if testing.Short() {
		plans = 60
	}
	checked, evaluated := 0, 0
	for seed := range int64(plans) {
		s := checkSeed(t, seed, true)
		splices += s.splices
		if s.checked {
			checked++
		}
		if s.evaluated {
			evaluated++
		}
	}
	// The generator must actually exercise the isolation splice, and
	// build plans internal/check accepts and the engine evaluates.
	if splices < plans {
		t.Errorf("only %d splices over %d random plans: the generator no longer builds spliceable towers", splices, plans)
	}
	if checked < plans/4 {
		t.Errorf("only %d of %d random plans pass internal/check before optimization", checked, plans)
	}
	if evaluated < plans/4 {
		t.Errorf("only %d of %d random plans evaluate", evaluated, plans)
	}
	t.Logf("%d splices; %d of %d plans checked by internal/check, %d evaluated", splices, checked, plans, evaluated)
}

// FuzzPipelineMatchesReference is TestRandomPlansMatchReference over
// fuzzed seeds of the random plan generator, with the plans judged by
// evaluation rather than compared (not strict: see
// opt.CheckAgainstReference). The last three seeds are where the
// worklist ends elsewhere than the round driver: -18471 keeps a mark the
// round driver had spliced as a ϱ, -1144 keeps another pair of an
// undemanded projection, -1548 has one operator fewer.
func FuzzPipelineMatchesReference(f *testing.F) {
	for _, seed := range []int64{0, 7, 42, 299, -18471, -1144, -1548} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkSeed(t, seed, false) })
}

type seedRun struct {
	splices            int
	checked, evaluated bool
}

// checkSeed runs the differential on the random plan of one seed; when
// internal/check accepts the plan as generated (random plans may feed a
// node operator an int column) it has it re-validate the pipeline's plan
// too, and when the engine evaluates the plan as generated, the
// pipeline's plan — and the round driver's, where it is another — must
// give the same rows in the same order.
func checkSeed(t *testing.T, seed int64, strict bool) seedRun {
	got, want, n := opt.CheckSeed(t, seed, strict)
	run := seedRun{splices: n}
	if got == nil {
		return run
	}
	input := opt.RandomPlan(seed)
	if len(check.Plan(input)) == 0 {
		checkClean(t, got)
		run.checked = true
	}
	if rowBound(input) > maxEvalRows {
		return run
	}
	rows, err := evalRows(input)
	if err != nil {
		return run
	}
	run.evaluated = true
	plans := []*algebra.Op{got}
	if algebra.TreeString(want) != algebra.TreeString(got) {
		plans = append(plans, want)
	}
	for k, p := range plans {
		out, err := evalRows(p)
		if err == nil && out != rows {
			err = fmt.Errorf("rows\n%s\nwant\n%s", out, rows)
		}
		if err != nil {
			t.Fatalf("seed %d: the %s plan does not evaluate as its input: %v\n%s", seed, []string{"pipeline's", "round driver's"}[k], err, algebra.TreeString(p))
		}
	}
	return run
}

// maxEvalRows bounds the rows any operator of a random plan may produce
// for the plan to be evaluated: the generator stacks products freely,
// and a few of its plans would build tables of millions of rows.
const maxEvalRows = 10_000

// rowBound bounds the rows the plan's largest operator produces. A step
// counts 64 rows per context row: the generator's constructed trees are
// a few nodes deep.
func rowBound(root *algebra.Op) float64 {
	bound := make(map[*algebra.Op]float64)
	worst := 0.0
	for _, o := range algebra.Topo(root) {
		var b float64
		switch o.Kind {
		case algebra.OpLit:
			b = float64(o.Lit.Rows())
		case algebra.OpCross, algebra.OpJoin:
			b = bound[o.In[0]] * bound[o.In[1]]
		case algebra.OpUnion:
			b = bound[o.In[0]] + bound[o.In[1]]
		case algebra.OpStep:
			b = bound[o.In[0]] * 64
		case algebra.OpRange:
			b = math.Inf(1)
		default:
			b = bound[o.In[0]]
		}
		bound[o] = b
		worst = max(worst, b)
	}
	return worst
}

// evalRows evaluates a plan over an empty store and renders its rows in
// the order the engine returns them.
func evalRows(p *algebra.Op) (string, error) {
	tb, err := engine.New(xenc.NewStore()).Eval(p)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for r := range tb.Rows() {
		for _, c := range p.Schema() {
			fmt.Fprintf(&sb, "%v|", tb.MustCol(c).ItemAt(r))
		}
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}

// checkClean has internal/check re-validate a plan at every layer (nil:
// the pipeline failed as the round driver did).
func checkClean(t *testing.T, plan *algebra.Op) {
	t.Helper()
	if plan == nil {
		return
	}
	if diags := check.Plan(plan); len(diags) > 0 {
		t.Fatalf("pipeline plan has findings:\n%s\n%s", check.Render(diags), algebra.TreeString(plan))
	}
}

// TestPipelineConcurrentOnSharedInput runs eight pipelines over one
// input DAG at once (meaningful under -race: `make race` includes this
// package): the plan index is a side structure and the isolation pass
// works on a clone, so the input's dump must come out unchanged and all
// eight results must agree.
func TestPipelineConcurrentOnSharedInput(t *testing.T) {
	for _, n := range []int{8, 10} {
		plan := compileAll(t, []string{xmark.Query(n)}, "xmark.xml")[0]
		before := algebra.TreeString(plan)
		results := make([]string, 8)
		var wg sync.WaitGroup
		for g := range results {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				res, err := opt.Pipeline(plan)
				if err != nil {
					t.Errorf("Q%d goroutine %d: %v", n, g, err)
					return
				}
				results[g] = renderPlanSnapshot(res)
			}(g)
		}
		wg.Wait()
		if after := algebra.TreeString(plan); after != before {
			t.Fatalf("Q%d: concurrent pipelines mutated their shared input", n)
		}
		for g, r := range results[1:] {
			if r != results[0] {
				t.Errorf("Q%d: goroutine %d produced a different plan than goroutine 0", n, g+1)
			}
		}
	}
}
