package difftest

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"pathfinder/internal/corpus"
)

// recorder is a testing.TB that keeps what the runner reports instead of
// failing; Fatal and everything else go to the real test.
type recorder struct {
	testing.TB
	reports []string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	where, _, _ := strings.Cut(msg, ": ")
	r.reports = append(r.reports, where)
}

// mangled is Check with its outcomes passed through mangle.
func mangled(name string, family Family, mangle func(got string, err error) (string, error)) Evaluator {
	return Evaluator{Name: name, Family: family, Run: func(tb testing.TB, docs []Doc) Eval {
		seq := Check.Run(tb, docs)
		return func(q Query) (string, error) { return mangle(seq(q)) }
	}}
}

var (
	byteOff = mangled("byte off", Relational, func(got string, err error) (string, error) {
		if err != nil || got == "" {
			return got, err
		}
		return got[:len(got)-1] + string(got[len(got)-1]^1), nil
	})
	swallowed = mangled("swallowed", Relational, func(got string, err error) (string, error) {
		return got, nil
	})
	failing = mangled("failing", Relational, func(got string, err error) (string, error) {
		if err == nil {
			err = errors.New("failing")
		}
		return "", err
	})
	reworded = func(family Family) Evaluator {
		return mangled("reworded", family, func(got string, err error) (string, error) {
			if err != nil {
				err = errors.New("reworded: " + err.Error())
			}
			return got, err
		})
	}
)

// both is the report of ev on each named case in both plan forms.
func both(ev string, names ...string) []string {
	var want []string
	for _, n := range names {
		want = append(want, n+" / "+ev+" / plain", n+" / "+ev+" / optimized")
	}
	return want
}

// TestRunnerReportsWrongEvaluators: deliberately wrong evaluators next
// to the sequential pivot — one byte off, an error swallowed, an error
// reworded inside the relational family — are each reported once per
// case and plan form they get wrong, and nowhere else.
func TestRunnerReportsWrongEvaluators(t *testing.T) {
	cases := []corpus.Case{
		{Name: "agreed", Query: `(1, 2, 3)`, Agree: true},
		{Name: "pinned", Query: `1 + 1`, Want: "2"},
		{Name: "pinned error", Query: `9223372036854775807 + 1`, Err: "FOAR0002"},
		{Name: "agreed error", Query: `1 idiv 0`, Agree: true},
		{Name: "pinned empty", Query: `()`},
	}
	for _, tc := range []struct {
		ev   Evaluator
		want []string
	}{
		{Check, nil},
		{byteOff, both("byte off", "agreed", "pinned")},
		{swallowed, both("swallowed", "pinned error", "agreed error")},
		{reworded(Relational), both("reworded", "pinned error", "agreed error")},
		{reworded(Foreign), nil},
		{failing, both("failing", "agreed", "pinned", "pinned empty")},
	} {
		rec := &recorder{TB: t}
		pivots := Matrix{Evals: []Evaluator{Check, tc.ev}}.Run(rec, cases)
		if pivots[3].Err == nil {
			t.Fatalf("%s: the pivot answers %q; the case must fail", cases[3].Query, pivots[3].Got)
		}
		if !slices.Equal(rec.reports, tc.want) {
			t.Errorf("%s (family %d): reported %q, want %q", tc.ev.Name, tc.ev.Family, rec.reports, tc.want)
		}
	}
}

// TestRunnerPinsTheEmptySequence: a case that pins the empty result
// holds every evaluator to it, the pivot too, so evaluators that all fail
// alike are still reported.
func TestRunnerPinsTheEmptySequence(t *testing.T) {
	rec := &recorder{TB: t}
	Matrix{Evals: []Evaluator{failing, failing}}.Run(rec, []corpus.Case{{Name: "empty", Query: `()`}})
	if want := append(both("failing", "empty"), both("failing", "empty")...); !slices.Equal(rec.reports, want) {
		t.Errorf("reported %q, want %q", rec.reports, want)
	}
}

// TestRunnerHoldsToTheGoldens: one byte off any XMark golden is reported.
func TestRunnerHoldsToTheGoldens(t *testing.T) {
	rec := &recorder{TB: t}
	Matrix{Docs: XMarkDocs(), Evals: []Evaluator{Check, byteOff}}.Run(rec, XMark(t, 1, 8))
	if want := both("byte off", "Q1", "Q8"); !slices.Equal(rec.reports, want) {
		t.Errorf("reported %q, want %q", rec.reports, want)
	}
}
