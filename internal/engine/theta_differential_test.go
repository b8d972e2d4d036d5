package engine_test

// Differential tier for theta joins: XMark Q11/Q12 and a corpus of
// `for … where A cmp B` queries — all four inequalities, either operand
// order, value comparisons, int / double / untyped / string keys,
// duplicate keys, empty sides, values that make the comparison fail —
// run through three executors that must agree byte for byte: the
// physical executor with the band kernel live, the same executor forced
// to run the ×, ⊛, σ of every theta join one by one, and the
// navigational baseline.
// The independent oracle is navdom for results plus each case's wantErr
// for error text: the forced-demotion run is only the pivot the band
// kernel's run is compared against, and it shares the physical ×, ⊛, σ
// kernels with it. The engines run with runtime checking on; the file is
// part of the -race tier.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pathfinder/internal/corpus"
	"pathfinder/internal/difftest"
	"pathfinder/internal/engine"
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

// thetaCase is one corpus query and the lane every theta-join node of
// its optimized plan must report, joined by commas: the band kernel's
// ("float", "str"; "count:float" when the node only counted its pairs),
// a demotion ("demoted:<reason>"), or "" for a plan that must hold no
// theta join at all. An Err is the error every evaluator must name; the
// relational ones raise it from ⊛, verbatim as the pivot does.
type thetaCase struct {
	corpus.Case
	lane string
}

func theta(name, query, lane string) thetaCase {
	return thetaCase{corpus.Case{Name: name, Query: query, Agree: true}, lane}
}

func pairs(cond string) string {
	return `for $a in /db/as/a for $b in /db/bs/b where ` + cond + ` return concat($a/@id, "-", $b/@id)`
}

var thetaCorpus = []thetaCase{
	theta("lt double×untyped", pairs(`2 * $a/@v < $b/@w`), "float"),
	theta("le with ties", pairs(`$a/@v * 1 <= $b/@w`), "float"),
	theta("gt", pairs(`$a/@v * 1 > $b/@w`), "float"),
	theta("ge with ties", pairs(`$a/@v * 1 >= $b/@w`), "float"),
	theta("swapped sides", pairs(`$b/@w > 2 * $a/@v`), "float"),
	theta("swapped, inner side computed", pairs(`$b/@w * 2 <= $a/@v`), "float"),
	theta("value lt on strings", pairs(`string($a/@s) lt string($b/@s)`), "str"),
	theta("value ge on ints", pairs(`string-length($a/@s) ge string-length($b/@s)`), "float"),
	theta("int×double", pairs(`string-length($a/@s) <= $b/@w * 1.5`), "float"),
	theta("int×untyped", pairs(`string-length($a/@s) < $b/@w`), "float"),
	theta("string×untyped", pairs(`string($a/@s) >= $b/@s`), "str"),
	theta("untyped×string", pairs(`$a/@s < string($b/@s)`), "str"),
	theta("untyped×untyped", pairs(`$a/@v < $b/@w`), "str"),
	theta("untyped×untyped words", pairs(`$a/@s >= $b/@s`), "str"),
	theta("bool×bool", pairs(`($a/@v * 1 > 4) < ($b/@w * 1 > 4)`), "demoted:bool"),
	theta("empty inner", `for $a in /db/as/a for $b in /db/none/b where $a/@v * 1 < $b/@w return string($b/@id)`, "float"),
	// No numeric key is left once the computed side is empty: the lane is
	// chosen by the untyped side alone, and nothing is compared.
	theta("empty outer", `for $a in /db/none/a for $b in /db/bs/b where $a/@v * 1 < $b/@w return string($b/@id)`, "str"),
	{corpus.Case{Name: "uncastable value", Err: `cannot compare "abc" numerically`,
		Query: `for $a in /db/as/a for $x in /db/bad/x where string-length($a/@s) < $x/@v return string($a/@id)`}, "demoted:uncastable"},
	{corpus.Case{Name: "NaN value", Err: `cannot compare "NaN" numerically`,
		Query: `for $a in /db/as/a for $x in /db/bad/x where number($x/@v) >= string-length($a/@s) return string($a/@id)`}, "demoted:nan"},
	theta("residual conjunct", pairs(`2 * $a/@v < $b/@w and contains(string($b/@s), "i")`), "float"),
	theta("not-equal stays a product", pairs(`$a/@v * 1 != $b/@w`), ""),
	theta("Q11 shape", `for $a in /db/as/a
	               let $l := for $b in /db/bs/b where $a/@v * 1 > 2 * $b/@w return $b
	               return <n id="{$a/@id}">{count($l)}</n>`, "count:float"),
}

// thetaEvals are the three executors: the forced-demotion run (the
// pivot), the band kernel, and navdom.
var thetaEvals = []difftest.Evaluator{demoted, difftest.Check, navdomEval}

// thetaPaths evaluates src's optimized plan on e under trace and reports
// what each of its theta-join nodes ran as.
func thetaPaths(t *testing.T, e *engine.Engine, src string, opts xqcore.Options) []string {
	t.Helper()
	plan, err := difftest.Compile(src, opts, difftest.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	_, tr, _ := e.EvalTrace(context.Background(), plan)
	var paths []string
	for _, nd := range thetaNodes(e.Lowered(plan)) {
		st := tr.Stats[nd.Op]
		kernel, prefix := "merge-thetajoin[", ""
		if nd.Theta.Count != nil {
			kernel, prefix = "merge-thetacount[", "count:"
		}
		switch {
		case strings.HasPrefix(st.Kernel, kernel):
			paths = append(paths, prefix+strings.TrimSuffix(strings.TrimPrefix(st.Kernel, kernel), "]"))
		case strings.Contains(st.Kernel, "(demoted:"):
			_, reason, _ := strings.Cut(st.Kernel, "(")
			paths = append(paths, strings.TrimSuffix(reason, ")"))
		default:
			paths = append(paths, fmt.Sprintf("unknown (%q)", st.Kernel))
		}
	}
	return paths
}

func TestThetaCorpusDifferential(t *testing.T) {
	if len(thetaCorpus) < 16 {
		t.Fatalf("theta corpus has %d queries, want at least 16", len(thetaCorpus))
	}
	docs := []difftest.Doc{{URI: "theta.xml", Text: thetaDoc()}}
	cases := make([]corpus.Case, len(thetaCorpus))
	for i, c := range thetaCorpus {
		cases[i] = c.Case
	}
	pivots := matrix(docs, thetaEvals...).Run(t, cases)
	for i, c := range thetaCorpus {
		got, err := pivots[i].Got, pivots[i].Err
		switch {
		case c.Err == "" && err != nil:
			t.Errorf("%s: the pivot fails: %v", c.Name, err)
		case c.Err != "" && (err == nil || err.Error() != "fun: "+c.Err):
			t.Errorf("%s: the pivot fails with %v, want %q verbatim", c.Name, err, "fun: "+c.Err)
		case c.Err == "" && c.lane != "" && !strings.HasPrefix(c.Name, "empty") && got == "":
			t.Errorf("%s: empty result — the query does not exercise the join", c.Name)
		}
	}
	checkThetaLanes(t, docs, thetaCorpus)
}

// TestXMarkThetaDifferential: Q11 and Q12, the paper's theta-join
// queries, through all three executors against the goldens. Every theta
// join must take the float lane: the join under count($l) without emitting a
// pair, Q12's second where clause (a theta join too) as pairs.
func TestXMarkThetaDifferential(t *testing.T) {
	cases := difftest.XMark(t, 11, 12)
	// The band kernel meets the goldens in TestXMarkGolden.
	matrix(difftest.XMarkDocs(), demoted, navdomEval).Run(t, cases)
	checkThetaLanes(t, difftest.XMarkDocs(), []thetaCase{{cases[0], "count:float"}, {cases[1], "float,count:float"}})
}

// checkThetaLanes asserts that with the band kernel live every
// theta-join node of each case's optimized plan runs as the case's lane,
// and forced onto its members as demoted:forced.
func checkThetaLanes(t *testing.T, docs []difftest.Doc, cases []thetaCase) {
	t.Helper()
	opts := xqcore.Options{ContextDoc: docs[0].URI}
	band := difftest.LoadEngine(t, difftest.CheckConfig, docs)
	demote := difftest.LoadEngine(t, difftest.CheckConfig, docs)
	demote.ForceThetaDemotion()
	for _, c := range cases {
		if got := strings.Join(thetaPaths(t, band, c.Query, opts), ","); got != c.lane {
			t.Errorf("%s: theta joins ran as %q, want %q", c.Name, got, c.lane)
		}
		for _, p := range thetaPaths(t, demote, c.Query, opts) {
			if p != "demoted:forced" {
				t.Errorf("%s: forced-demotion engine ran a theta join as %q", c.Name, p)
			}
		}
	}
}
