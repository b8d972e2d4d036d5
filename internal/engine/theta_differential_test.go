package engine_test

// Differential tier for theta joins: XMark Q11/Q12 and a corpus of
// `for … where A cmp B` queries — all four inequalities, either operand
// order, value comparisons, int / double / untyped / string keys,
// duplicate keys, empty sides, values that make the comparison fail —
// run through three executors that must agree byte for byte: the
// physical executor with the band kernel live, the same executor forced
// to run every unit's ×, ⊛, σ one by one, and the navigational baseline.
// The independent oracle is navdom for results plus each case's wantErr
// for error text: the forced-demotion run on one worker is only the
// pivot the other relational legs are compared against, and it shares
// the physical ×, ⊛, σ kernels with them. The engines run at workers ∈
// {1, 2, 8} with 7-row morsels and runtime checking on; the file is part
// of the -race tier.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pathfinder/internal/core"
	"pathfinder/internal/engine"
	"pathfinder/internal/navdom"
	"pathfinder/internal/opt"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

// thetaDoc is the corpus document: twelve a's and nine b's whose @v/@w
// keys are untyped numerics with ties, negatives and decimals, whose @s
// keys are short words with ties, plus one value that does not cast.
func thetaDoc() string {
	vs := []string{"5", "10", "5", "2.5", "7", "0", "-1", "5", "12", "3.5", "7", "1e1"}
	ws := []string{"5", "7.5", "1", "5", "0", "20", "-3", "7", "2.5"}
	words := []string{"pear", "apple", "fig", "kiwi", "fig", "lime"}
	var sb strings.Builder
	sb.WriteString("<db><as>")
	for i, v := range vs {
		fmt.Fprintf(&sb, `<a id="a%d" v="%s" s="%s"/>`, i+1, v, words[i%len(words)])
	}
	sb.WriteString("</as><bs>")
	for i, w := range ws {
		fmt.Fprintf(&sb, `<b id="b%d" w="%s" s="%s"/>`, i+1, w, words[(i*2+1)%len(words)])
	}
	sb.WriteString(`</bs><bad><x v="abc"/><x v="3"/></bad><none/></db>`)
	return sb.String()
}

// thetaCase is one corpus query. path is what every theta-join unit of
// its optimized plan must report: the band kernel's lane ("float",
// "str"; "count:float" when the unit only counted its pairs), a demotion
// ("demoted:<reason>"), or "" for a plan that must hold no unit at all. wantErr, when set, is the error every relational
// executor must return verbatim.
type thetaCase struct {
	name, query, path, wantErr string
}

func pairs(cond string) string {
	return `for $a in /db/as/a for $b in /db/bs/b where ` + cond + ` return concat($a/@id, "-", $b/@id)`
}

var thetaCorpus = []thetaCase{
	{"lt double×untyped", pairs(`2 * $a/@v < $b/@w`), "float", ""},
	{"le with ties", pairs(`$a/@v * 1 <= $b/@w`), "float", ""},
	{"gt", pairs(`$a/@v * 1 > $b/@w`), "float", ""},
	{"ge with ties", pairs(`$a/@v * 1 >= $b/@w`), "float", ""},
	{"swapped sides", pairs(`$b/@w > 2 * $a/@v`), "float", ""},
	{"swapped, inner side computed", pairs(`$b/@w * 2 <= $a/@v`), "float", ""},
	{"value lt on strings", pairs(`string($a/@s) lt string($b/@s)`), "str", ""},
	{"value ge on ints", pairs(`string-length($a/@s) ge string-length($b/@s)`), "float", ""},
	{"int×double", pairs(`string-length($a/@s) <= $b/@w * 1.5`), "float", ""},
	{"int×untyped", pairs(`string-length($a/@s) < $b/@w`), "float", ""},
	{"string×untyped", pairs(`string($a/@s) >= $b/@s`), "str", ""},
	{"untyped×string", pairs(`$a/@s < string($b/@s)`), "str", ""},
	{"untyped×untyped", pairs(`$a/@v < $b/@w`), "demoted:untyped×untyped", ""},
	{"untyped×untyped words", pairs(`$a/@s >= $b/@s`), "demoted:untyped×untyped", ""},
	{"bool×bool", pairs(`($a/@v * 1 > 4) < ($b/@w * 1 > 4)`), "demoted:bool", ""},
	{"empty inner", `for $a in /db/as/a for $b in /db/none/b where $a/@v * 1 < $b/@w return string($b/@id)`, "float", ""},
	// No numeric key is left once the computed side is empty: the lane is
	// chosen by the untyped side alone, and nothing is compared.
	{"empty outer", `for $a in /db/none/a for $b in /db/bs/b where $a/@v * 1 < $b/@w return string($b/@id)`, "str", ""},
	{"uncastable value", `for $a in /db/as/a for $x in /db/bad/x where string-length($a/@s) < $x/@v return string($a/@id)`,
		"demoted:uncastable", `fun: cannot compare "abc" numerically`},
	{"NaN value", `for $a in /db/as/a for $x in /db/bad/x where number($x/@v) >= string-length($a/@s) return string($a/@id)`,
		"demoted:nan", `fun: cannot compare "NaN" numerically`},
	{"residual conjunct", pairs(`2 * $a/@v < $b/@w and contains(string($b/@s), "i")`), "float", ""},
	{"not-equal stays a product", pairs(`$a/@v * 1 != $b/@w`), "", ""},
	{"Q11 shape", `for $a in /db/as/a
	               let $l := for $b in /db/bs/b where $a/@v * 1 > 2 * $b/@w return $b
	               return <n id="{$a/@id}">{count($l)}</n>`, "count:float", ""},
}

var thetaWorkerCounts = []int{1, 2, 8}

type thetaEngines struct {
	band   map[int]*engine.Engine // band kernel live
	demote map[int]*engine.Engine // every unit forced onto ×, ⊛, σ; demote[1] is the reference
	nav    *navdom.DB
}

func newThetaEngines(t *testing.T, uri, doc string) *thetaEngines {
	t.Helper()
	mk := func(cfg engine.Config) *engine.Engine {
		e := engine.NewWithConfig(xenc.NewStore(), cfg)
		if _, err := e.Store.LoadDocumentString(uri, doc); err != nil {
			t.Fatal(err)
		}
		return e
	}
	es := &thetaEngines{
		band:   map[int]*engine.Engine{},
		demote: map[int]*engine.Engine{},
		nav:    navdom.NewDB(),
	}
	for _, w := range thetaWorkerCounts {
		cfg := engine.Config{Workers: w, SeqThreshold: -1, MorselRows: 7, Check: true}
		es.band[w] = mk(cfg)
		es.demote[w] = mk(cfg)
		es.demote[w].ForceThetaDemotion()
	}
	if _, err := es.nav.LoadString(uri, doc); err != nil {
		t.Fatal(err)
	}
	return es
}

// agree runs src, plain and optimized, on every executor and compares
// each outcome with the pivot run's: the compiled plan on one worker,
// members one by one (that leg itself is not re-run). It returns the
// pivot's output and error.
func (es *thetaEngines) agree(t *testing.T, name, src string, opts xqcore.Options) (string, error) {
	t.Helper()
	want, wantErr := core.Run(src, es.demote[1], opts)
	same := func(label string, got string, err error) {
		t.Helper()
		switch {
		case (err == nil) != (wantErr == nil), err != nil && err.Error() != wantErr.Error():
			t.Errorf("%s [%s]: error %v, reference %v", name, label, err, wantErr)
		case got != want:
			t.Errorf("%s [%s]: result differs:\n reference = %.300q\n got       = %.300q", name, label, want, got)
		}
	}
	for _, w := range thetaWorkerCounts {
		for label, e := range map[string]*engine.Engine{"band": es.band[w], "demoted": es.demote[w]} {
			label = fmt.Sprintf("%s workers=%d", label, w)
			if e != es.demote[1] {
				got, err := core.Run(src, e, opts)
				same(label, got, err)
			}
			got, err := runOptimized(t, src, e, opts)
			same(label+" optimized", got, err)
		}
	}
	nav, errN := navdom.NewInterp(es.nav).Run(src, opts)
	if wantErr != nil {
		// The baseline evaluates nothing relationally; it must fail too,
		// in its own words.
		if errN == nil {
			t.Errorf("%s [navdom]: succeeded with %.200q, reference fails with %v", name, nav, wantErr)
		}
	} else {
		same("navdom", nav, errN)
	}
	return want, wantErr
}

// thetaPaths evaluates src's optimized plan on e under trace and reports
// what each of its theta-join units ran as.
func thetaPaths(t *testing.T, e *engine.Engine, src string, opts xqcore.Options) []string {
	t.Helper()
	plan, _, err := core.CompileQuery(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan, err = opt.Optimize(plan); err != nil {
		t.Fatal(err)
	}
	_, tr, _ := e.EvalTrace(context.Background(), plan)
	var paths []string
	for _, tj := range e.Lowered(plan).ThetaJoins {
		out, cross := tr.Stats[tj.Out().Op], tr.Stats[tj.Cross.Op]
		kernel, prefix := "merge-thetajoin[", ""
		if tj.Count != nil {
			kernel, prefix = "merge-thetacount[", "count:"
		}
		switch {
		case out.ThetaJoin == tj.ID && strings.HasPrefix(out.Kernel, kernel):
			paths = append(paths, prefix+strings.TrimSuffix(strings.TrimPrefix(out.Kernel, kernel), "]"))
		case strings.Contains(cross.Kernel, "(demoted:"):
			_, reason, _ := strings.Cut(cross.Kernel, "(")
			paths = append(paths, strings.TrimSuffix(reason, ")"))
		default:
			paths = append(paths, fmt.Sprintf("unknown (unit output %q, × %q)", out.Kernel, cross.Kernel))
		}
	}
	return paths
}

func TestThetaCorpusDifferential(t *testing.T) {
	if len(thetaCorpus) < 16 {
		t.Fatalf("theta corpus has %d queries, want at least 16", len(thetaCorpus))
	}
	es := newThetaEngines(t, "theta.xml", thetaDoc())
	opts := xqcore.Options{ContextDoc: "theta.xml"}
	for _, c := range thetaCorpus {
		got, err := es.agree(t, c.name, c.query, opts)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: reference failed: %v", c.name, err)
		case c.wantErr != "" && (err == nil || err.Error() != c.wantErr):
			t.Errorf("%s: reference error %v, want %q", c.name, err, c.wantErr)
		case c.wantErr == "" && c.path != "" && !strings.HasPrefix(c.name, "empty") && got == "":
			t.Errorf("%s: empty result — the query does not exercise the join", c.name)
		}
		for _, w := range thetaWorkerCounts {
			paths := thetaPaths(t, es.band[w], c.query, opts)
			want := []string{c.path}
			if c.path == "" {
				want = nil
			}
			if strings.Join(paths, ",") != strings.Join(want, ",") {
				t.Errorf("%s workers=%d: theta units ran as %q, want %q", c.name, w, paths, want)
			}
			for _, p := range thetaPaths(t, es.demote[w], c.query, opts) {
				if p != "demoted:forced" {
					t.Errorf("%s workers=%d: forced-demotion engine ran a unit as %q", c.name, w, p)
				}
			}
		}
	}
}

// TestXMarkThetaDifferential: Q11 and Q12, the paper's theta-join
// queries, through all three executors. Every unit must take the float
// lane: the join under count($l) without emitting a pair, Q12's second
// where clause (a unit too) as pairs.
func TestXMarkThetaDifferential(t *testing.T) {
	es := newThetaEngines(t, "xmark.xml", xmark.GenerateString(diffSF))
	opts := xqcore.Options{ContextDoc: "xmark.xml"}
	want := map[int]string{11: "count:float", 12: "float,count:float"}
	for _, n := range []int{11, 12} {
		name := fmt.Sprintf("Q%d", n)
		if _, err := es.agree(t, name, xmark.Query(n), opts); err != nil {
			t.Errorf("%s: reference failed: %v", name, err)
		}
		for _, w := range thetaWorkerCounts {
			if paths := thetaPaths(t, es.band[w], xmark.Query(n), opts); strings.Join(paths, ",") != want[n] {
				t.Errorf("%s workers=%d: theta units ran as %q, want %q", name, w, paths, want[n])
			}
		}
	}
}
