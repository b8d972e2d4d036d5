package engine_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/corpus"
	"pathfinder/internal/difftest"
	"pathfinder/internal/engine"
	"pathfinder/internal/physical"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xqcore"
)

// TestStreamedReadIsAKernelPanic: a plan that streamed an ε whose nodes a
// step then reads — what internal/check's stream class rules out — fails
// its query with a kernel panic naming the streamed fragment instead of
// reading garbage.
func TestStreamedReadIsAKernelPanic(t *testing.T) {
	plan, err := difftest.Compile(`(<a><b/></a>)/b`, xqcore.Options{}, difftest.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	forced := func(root *algebra.Op) *physical.Plan {
		p := physical.Lower(root)
		for _, nd := range p.Nodes {
			nd.Stream = nd.Stream || nd.Op.Kind == algebra.OpElem
		}
		return p
	}
	eng := engine.New(xenc.NewStore())
	if got, err := difftest.OnEngine(eng, physical.Lower)(difftest.Query{Plan: plan}); err != nil || got != "<b/>" {
		t.Fatalf("as lowered the query answers %q, %v", got, err)
	}
	_, err = difftest.OnEngine(eng, forced)(difftest.Query{Plan: plan})
	var kp *engine.KernelPanic
	if !errors.As(err, &kp) || !strings.Contains(fmt.Sprint(kp.Value), "streamed fragment") {
		t.Errorf("forced streaming fails with %v, want a kernel panic naming a streamed fragment", err)
	}
}

// TestStreamBoundary: corpus.StreamBoundary over every engine
// configuration and navdom, each outcome the pinned one; and per case,
// the ε of the optimized plan take the pinned sinks — as lowered, and as
// the trace of a run reports them.
func TestStreamBoundary(t *testing.T) {
	docs := []difftest.Doc{{URI: "r.xml", Text: corpus.ConstructorDoc}}
	matrix(docs, difftest.Check, demoted, navdomEval).Run(t, corpus.Cases(corpus.StreamBoundary))
	eng := difftest.LoadEngine(t, difftest.CheckConfig, docs)
	for _, c := range corpus.StreamBoundary {
		plan, err := difftest.Compile(c.Query, xqcore.Options{ContextDoc: "r.xml"}, difftest.Optimized)
		if err != nil {
			t.Fatal(err)
		}
		p := physical.Lower(plan)
		lowered := map[bool]int{}
		for _, nd := range p.Nodes {
			if nd.Op.Kind == algebra.OpElem {
				lowered[nd.Stream]++
			}
		}
		if lowered[true] != c.Streamed || lowered[false] != c.Built {
			t.Errorf("%q lowers to %d streamed and %d built ε, want %d and %d", c.Query, lowered[true], lowered[false], c.Streamed, c.Built)
		}
		if c.Err != "" {
			continue
		}
		_, tr, err := eng.EvalPlan(context.Background(), p, true)
		if err != nil {
			t.Fatalf("%q: %v", c.Query, err)
		}
		ran := map[string]int{}
		for _, st := range tr.Stats {
			ran[st.Sink]++
		}
		if ran["stream"] != c.Streamed || ran["fragment"] != c.Built {
			t.Errorf("%q ran %d ε streamed and %d built, want %d and %d", c.Query, ran["stream"], ran["fragment"], c.Streamed, c.Built)
		}
	}
}
