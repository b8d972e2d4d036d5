package navdom_test

import (
	"testing"

	"pathfinder/internal/corpus"
	"pathfinder/internal/difftest"
	"pathfinder/internal/engine"
)

var (
	// engines is every engine configuration of the differential tiers —
	// the sequential path first, as the pivot, the scheduler, and tiny
	// morsels at workers 1, 2 and 8 — and navdom. The evaluators that
	// need the engine's test hooks run the same lists in the engine's
	// TestListsThroughHooks.
	engines = []difftest.Evaluator{
		difftest.Seq, difftest.Par, difftest.Morsel(1), difftest.Morsel(2), difftest.Morsel(8), difftest.Navdom("navdom"),
	}
	auction = []difftest.Doc{{URI: "auction.xml", Text: corpus.AuctionDoc}}
)

// TestDifferentialEngines: the battery through every engine
// configuration and navdom.
func TestDifferentialEngines(t *testing.T) {
	difftest.Matrix{Docs: auction, Evals: engines}.Run(t, difftest.Agree("navigational", corpus.Navigational))
}

// TestQuickRandomDifferential: 200 random queries (seed 7) through every
// engine configuration and navdom; where one fails, all must.
func TestQuickRandomDifferential(t *testing.T) {
	difftest.Matrix{Docs: auction, Evals: engines}.Run(t, difftest.Agree("random", corpus.Random(7, 200)))
}

// TestCommentsAcrossEngines: comment nodes, kept by the loader and
// reached by the comment() test on every axis, in both engines.
func TestCommentsAcrossEngines(t *testing.T) {
	m := difftest.Matrix{
		Docs:  []difftest.Doc{{URI: "c.xml", Text: `<r><!--first--><a/><!--second--><b><!--third--></b></r>`}},
		Evals: []difftest.Evaluator{difftest.Engine("relational", engine.Config{}), difftest.Navdom("navdom")},
	}
	m.Run(t, []corpus.Case{
		{Query: `count(//comment())`, Want: "3"},
		{Query: `count(/r/comment())`, Want: "2"},
		{Query: `/r/b/comment()`, Want: "<!--third-->"},
		{Query: `count(//a/following::comment())`, Want: "2"},
	})
}
