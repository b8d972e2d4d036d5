// Package difftest is the one differential runner: it runs a case list
// (corpus.Case) over a matrix of evaluators — engine configurations,
// navdom, the service's front doors, a store round trip — and reports
// every outcome that differs from what the case pins, or, for a case
// that pins nothing (Agree), from the pivot's. XMark's cases pin their
// golden bytes. Each document is loaded once per evaluator and each
// query compiled once per plan form (plain, and optimized with
// check.Plan on it), whichever evaluators consume the plan.
//
// Evaluators that need test-only hooks (an engine with its theta joins
// demoted, a service listening on a socket, a store reopened from disk) are declared in the test files of
// the package that has the hook; this package holds the runner, the
// evaluators every package can build, and the XMark cases.
package difftest

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/check"
	"pathfinder/internal/core"
	"pathfinder/internal/corpus"
	"pathfinder/internal/engine"
	"pathfinder/internal/navdom"
	"pathfinder/internal/opt"
	"pathfinder/internal/physical"
	"pathfinder/internal/serialize"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xqcore"
)

// Doc is a document every evaluator loads under URI before the first case.
type Doc struct{ URI, Text string }

// Family says how an evaluator's errors are judged.
type Family int

const (
	// Relational evaluators share the engine's kernels: where the pivot
	// is relational too and fails, they fail with its error text verbatim.
	Relational Family = iota
	// Foreign evaluators — navdom, and front doors that put an error in
	// an envelope of their own — only have to fail where the pivot fails.
	Foreign
)

// Form is what an evaluator is handed of a case.
type Form string

const (
	Plain     Form = "plain"     // the plan as compiled
	Optimized Form = "optimized" // the plan after opt.Optimize, checked by check.Plan
	Text      Form = "text"      // the query text, for evaluators that compile or interpret it themselves
)

// Query is one case as an evaluator receives it. Plan is nil for Text.
type Query struct {
	Src  string
	Opts xqcore.Options
	Form Form
	Plan *algebra.Op
}

// Eval answers one query with its serialized result.
type Eval func(Query) (string, error)

// Evaluator is one column of the matrix. Run loads the documents and
// returns the Eval the runner calls for each case: once with the query
// text when Text is set, otherwise once per plan form.
type Evaluator struct {
	Name   string
	Family Family
	Text   bool
	Run    func(tb testing.TB, docs []Doc) Eval
}

// Matrix is a document set and the evaluators that answer queries over
// it. The first document is the context document; the first evaluator,
// in its first form, is the pivot.
type Matrix struct {
	Docs  []Doc
	Evals []Evaluator
}

// Outcome is what one evaluation produced.
type Outcome struct {
	Got string
	Err error
}

// Run evaluates every case on every evaluator and form and reports each
// outcome that differs from the case's pin or, for an Agree case, from
// the pivot's — once, as case / evaluator / form. It returns the pivot's
// outcome per case, for the checks that run after it.
func (m Matrix) Run(tb testing.TB, cases []corpus.Case) []Outcome {
	tb.Helper()
	var opts xqcore.Options
	if len(m.Docs) > 0 {
		opts.ContextDoc = m.Docs[0].URI
	}
	evals := make([]Eval, len(m.Evals))
	for i, ev := range m.Evals {
		evals[i] = ev.Run(tb, m.Docs)
	}
	pivots := make([]Outcome, len(cases))
	for k, c := range cases {
		name := c.Name
		if name == "" {
			name = fmt.Sprintf("%.60q", c.Query)
		}
		plans, errs := map[Form]*algebra.Op{}, map[Form]error{}
		for _, f := range []Form{Plain, Optimized} {
			plans[f], errs[f] = Compile(c.Query, opts, f)
		}
		for i, ev := range m.Evals {
			forms := []Form{Plain, Optimized}
			if ev.Text {
				forms = []Form{Text}
			}
			for _, f := range forms {
				o := Outcome{Err: errs[f]}
				if o.Err == nil {
					o.Got, o.Err = evals[i](Query{Src: c.Query, Opts: opts, Form: f, Plan: plans[f]})
				}
				if i == 0 && f == forms[0] {
					pivots[k] = o
				}
				rel := ev.Family == Relational && m.Evals[0].Family == Relational
				if why := judge(c, rel, o, pivots[k]); why != "" {
					tb.Errorf("%s / %s / %s: got %.300q, err %v; %s", name, ev.Name, f, o.Got, o.Err, why)
				}
			}
		}
	}
	return pivots
}

// Compile returns src's plan in form f (Plain or Optimized): each form
// is compiled from the text on its own, so no two forms share operators.
func Compile(src string, opts xqcore.Options, f Form) (*algebra.Op, error) {
	plan, _, err := core.CompileQuery(src, opts)
	if err != nil || f == Plain {
		return plan, err
	}
	if plan, err = opt.Optimize(plan); err != nil {
		return nil, err
	}
	return plan, check.Error(check.Plan(plan))
}

// judge says how o differs from what c expects of it, "" when it does
// not. rel: o's evaluator and the pivot are both relational.
func judge(c corpus.Case, rel bool, o, pivot Outcome) string {
	switch {
	case c.Err != "":
		if o.Err == nil || !strings.Contains(o.Err.Error(), c.Err) {
			return fmt.Sprintf("want an error naming %q", c.Err)
		}
	case !c.Agree:
		if o.Err != nil || o.Got != c.Want {
			return fmt.Sprintf("want %.300q", c.Want)
		}
		return ""
	case pivot.Err == nil:
		if o.Err != nil || o.Got != pivot.Got {
			return fmt.Sprintf("the pivot gives %.300q", pivot.Got)
		}
		return ""
	case o.Err == nil:
		return fmt.Sprintf("the pivot fails with %v", pivot.Err)
	}
	if rel && pivot.Err != nil && o.Err.Error() != pivot.Err.Error() {
		return fmt.Sprintf("the pivot fails with %v", pivot.Err)
	}
	return ""
}

// Agree makes cases named list[i] out of queries that pin no outcome.
func Agree(list string, queries []string) []corpus.Case {
	cases := make([]corpus.Case, len(queries))
	for i, q := range queries {
		cases[i] = corpus.Case{Name: fmt.Sprintf("%s[%d]", list, i), Query: q, Agree: true}
	}
	return cases
}

// NoErrors reports every case whose pivot failed without pinning the
// error — for lists, like corpus.Dialect, whose every query must run.
func NoErrors(tb testing.TB, cases []corpus.Case, pivots []Outcome) {
	tb.Helper()
	for k, o := range pivots {
		if o.Err != nil && cases[k].Err == "" {
			tb.Errorf("%s: the pivot fails: %v", cases[k].Name, o.Err)
		}
	}
}

// LoadEngine builds an engine with cfg over a fresh store holding docs.
func LoadEngine(tb testing.TB, cfg engine.Config, docs []Doc) *engine.Engine {
	tb.Helper()
	e := engine.NewWithConfig(xenc.NewStore(), cfg)
	for _, d := range docs {
		if _, err := e.Store.LoadDocumentString(d.URI, d.Text); err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

// OnEngine answers each plan on e from its lowering by lower —
// physical.Lower, or a variant of it — and serializes the result. The
// lowering lives as long as its case.
func OnEngine(e *engine.Engine, lower func(*algebra.Op) *physical.Plan) Eval {
	return func(q Query) (string, error) {
		res, _, err := e.EvalPlan(context.Background(), lower(q.Plan), false)
		if err != nil {
			return "", err
		}
		return serialize.Result(e.Store, res)
	}
}

// Engine is the evaluator that runs both plan forms on an engine built
// with cfg.
func Engine(name string, cfg engine.Config) Evaluator {
	return Evaluator{Name: name, Family: Relational, Run: func(tb testing.TB, docs []Doc) Eval {
		e := LoadEngine(tb, cfg, docs)
		return OnEngine(e, physical.Lower)
	}}
}

// The engine configurations the differential tiers run.
var (
	// SeqConfig is the sequential path, runtime checking on.
	SeqConfig = engine.Config{Workers: 1, Check: true}
	// ParConfig is the DAG scheduler at eight workers with the
	// sequential fallback off, so even tiny plans run concurrently.
	ParConfig = engine.Config{Workers: 8, SeqThreshold: -1, Check: true}

	Seq = Engine("seq", SeqConfig)
	Par = Engine("par", ParConfig)
)

// Navdom is the navigational baseline. index names (element, attribute)
// pairs to build a value index on, as xmarkbench does for XMark.
func Navdom(name string, index ...[2]string) Evaluator {
	return Evaluator{Name: name, Family: Foreign, Text: true, Run: func(tb testing.TB, docs []Doc) Eval {
		db := navdom.NewDB()
		for _, d := range docs {
			if _, err := db.LoadString(d.URI, d.Text); err != nil {
				tb.Fatal(err)
			}
		}
		for _, ix := range index {
			db.AddValueIndex(ix[0], ix[1])
		}
		return func(q Query) (string, error) { return navdom.NewInterp(db).Run(q.Src, q.Opts) }
	}}
}
