// Benchmarks regenerating the paper's evaluation (§3), one per table and
// figure, plus ablations for the design choices DESIGN.md calls out.
//
//	go test -bench=. -benchmem
//
// Table 3   → BenchmarkXMarkPathfinder / BenchmarkXMarkBaseline
// Figure 4  → BenchmarkFigure4Scaling (Pathfinder across instance sizes)
// §3.1      → BenchmarkStorageOverhead (ratio reported as a metric)
// Figure 5  → BenchmarkCompile (plan construction, ops/plan metric)
// Ablations → BenchmarkStaircaseVsNaive, BenchmarkOptimizerOnOff,
//
//	BenchmarkJoinRecognitionOnOff, BenchmarkMILRoundTrip
//
// The harness in cmd/xmarkbench produces the paper-formatted reports; the
// benchmarks here make the same measurements available to `go test`.
package pathfinder_test

import (
	"fmt"
	"sync"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/core"
	"pathfinder/internal/engine"
	"pathfinder/internal/mil"
	"pathfinder/internal/navdom"
	"pathfinder/internal/opt"
	"pathfinder/internal/serialize"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

// benchSFs are the instance sizes exercised by `go test -bench`. They are
// two factor-10 steps of the paper's ladder scaled to CI time budgets; use
// cmd/xmarkbench for the full three-decade sweep.
var benchSFs = []float64{0.002, 0.02}

var (
	docCacheMu sync.Mutex
	docCache   = map[float64]string{}
)

func xmarkDoc(sf float64) string {
	docCacheMu.Lock()
	defer docCacheMu.Unlock()
	if d, ok := docCache[sf]; ok {
		return d
	}
	d := xmark.GenerateString(sf)
	docCache[sf] = d
	return d
}

var benchOpts = xqcore.Options{ContextDoc: "xmark.xml"}

func loadEngine(b *testing.B, sf float64) *engine.Engine {
	b.Helper()
	eng := engine.New(xenc.NewStore())
	if _, err := eng.Store.LoadDocumentString("xmark.xml", xmarkDoc(sf)); err != nil {
		b.Fatal(err)
	}
	return eng
}

func loadDB(b *testing.B, sf float64) *navdom.DB {
	b.Helper()
	db := navdom.NewDB()
	if _, err := db.LoadString("xmark.xml", xmarkDoc(sf)); err != nil {
		b.Fatal(err)
	}
	db.AddValueIndex("buyer", "person")
	db.AddValueIndex("profile", "income")
	return db
}

// BenchmarkXMarkPathfinder is Table 3's Pathfinder column: the full
// pipeline (compile → optimize → evaluate → serialize) per query and size.
func BenchmarkXMarkPathfinder(b *testing.B) {
	for q := 1; q <= xmark.NumQueries; q++ {
		for _, sf := range benchSFs {
			b.Run(fmt.Sprintf("Q%02d/sf=%g", q, sf), func(b *testing.B) {
				eng := loadEngine(b, sf)
				query := xmark.Query(q)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					plan, _, err := core.CompileQuery(query, benchOpts)
					if err != nil {
						b.Fatal(err)
					}
					if plan, err = opt.Optimize(plan); err != nil {
						b.Fatal(err)
					}
					res, err := eng.Eval(plan)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := serialize.Result(eng.Store, res); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkXMarkBaseline is Table 3's X-Hive column: the navigational
// interpreter with the paper's value-index tuning.
func BenchmarkXMarkBaseline(b *testing.B) {
	for q := 1; q <= xmark.NumQueries; q++ {
		for _, sf := range benchSFs {
			b.Run(fmt.Sprintf("Q%02d/sf=%g", q, sf), func(b *testing.B) {
				db := loadDB(b, sf)
				query := xmark.Query(q)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := navdom.NewInterp(db).Run(query, benchOpts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFigure4Scaling measures Pathfinder across the size ladder for a
// representative query mix: path (Q1), recursive axes (Q6), equi-join
// (Q8), and theta-join (Q11, the paper's quadratic case).
func BenchmarkFigure4Scaling(b *testing.B) {
	for _, q := range []int{1, 6, 8, 11} {
		for _, sf := range benchSFs {
			b.Run(fmt.Sprintf("Q%02d/sf=%g", q, sf), func(b *testing.B) {
				eng := loadEngine(b, sf)
				plan, _, err := core.CompileQuery(xmark.Query(q), benchOpts)
				if err != nil {
					b.Fatal(err)
				}
				if plan, err = opt.Optimize(plan); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Eval(plan); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkStorageOverhead measures document shredding (load) and reports
// the §3.1 encoded-bytes / XML-bytes ratio.
func BenchmarkStorageOverhead(b *testing.B) {
	for _, sf := range benchSFs {
		b.Run(fmt.Sprintf("sf=%g", sf), func(b *testing.B) {
			doc := xmarkDoc(sf)
			b.SetBytes(int64(len(doc)))
			var ratio float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				store := xenc.NewStore()
				if _, err := store.LoadDocumentString("xmark.xml", doc); err != nil {
					b.Fatal(err)
				}
				ratio = float64(store.Report().Total()) / float64(len(doc))
			}
			b.ReportMetric(100*ratio, "%encoded/xml")
		})
	}
}

// BenchmarkStaircaseVsNaive ablates the staircase join: the same
// recursive-axis query (Q6/Q7 territory) with tree-aware pruning/skipping
// versus the context-at-a-time region queries of a tree-unaware RDBMS,
// versus the node-at-a-time navigational interpreter. The partitioned
// mode runs the prune/skip staircase split across context-range morsels
// (the intra-operator parallel path) for the morsel-overhead comparison.
func BenchmarkStaircaseVsNaive(b *testing.B) {
	const query = `count(/site//description) + count(//text()/ancestor::item)`
	for _, sf := range benchSFs {
		plan, _, err := core.CompileQuery(query, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []string{"staircase", "partitioned", "naive"} {
			b.Run(fmt.Sprintf("%s/sf=%g", mode, sf), func(b *testing.B) {
				var eng *engine.Engine
				switch mode {
				case "partitioned":
					eng = engine.NewWithConfig(xenc.NewStore(), engine.Config{MorselRows: 1024})
					if _, err := eng.Store.LoadDocumentString("xmark.xml", xmarkDoc(sf)); err != nil {
						b.Fatal(err)
					}
				default:
					eng = loadEngine(b, sf)
					eng.Staircase = mode == "staircase"
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Eval(plan); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("navdom/sf=%g", sf), func(b *testing.B) {
			db := loadDB(b, sf)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := navdom.NewInterp(db).Run(query, benchOpts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimizerOnOff ablates the optimizer pipeline [5] on the
// join-heavy Q8 plan: the compiled plan as core emits it against
// opt.Optimize's.
func BenchmarkOptimizerOnOff(b *testing.B) {
	for _, optimize := range []bool{true, false} {
		mode := "optimized"
		if !optimize {
			mode = "raw"
		}
		for _, sf := range benchSFs {
			b.Run(fmt.Sprintf("%s/sf=%g", mode, sf), func(b *testing.B) {
				eng := loadEngine(b, sf)
				plan, _, err := core.CompileQuery(xmark.Query(8), benchOpts)
				if err != nil {
					b.Fatal(err)
				}
				if optimize {
					if plan, err = opt.Optimize(plan); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(algebra.CountOps(plan)), "ops/plan")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Eval(plan); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkJoinRecognitionOnOff contrasts the compiler's unnested Q8 plan
// against the naively lifted nested loop the paper's join recognition [3]
// avoids (expressed by blocking the rewrite with a both-sided predicate).
func BenchmarkJoinRecognitionOnOff(b *testing.B) {
	recognized := xmark.Query(8)
	// Wrapping the comparison so that one side references both loop
	// variables defeats the pattern matcher: the generic lifted plan
	// materializes the |people| × |closed_auctions| product. The query is
	// semantically identical to Q8.
	blocked := `for $p in /site/people/person
	 let $a := for $t in /site/closed_auctions/closed_auction
	           where (if ($t/buyer/@person = $p/@id) then 1 else ()) = 1
	           return $t
	 return <item person="{$p/name/text()}">{count($a)}</item>`
	for _, mode := range []struct{ name, query string }{
		{"join", recognized}, {"lifted-nested-loop", blocked},
	} {
		for _, sf := range benchSFs {
			b.Run(fmt.Sprintf("%s/sf=%g", mode.name, sf), func(b *testing.B) {
				eng := loadEngine(b, sf)
				plan, _, err := core.CompileQuery(mode.query, benchOpts)
				if err != nil {
					b.Fatal(err)
				}
				if plan, err = opt.Optimize(plan); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Eval(plan); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCompile measures the front end alone: parse → normalize →
// loop-lift → optimize, reporting plan sizes (the paper quotes ~120
// operators for Q8 before optimization).
func BenchmarkCompile(b *testing.B) {
	for _, q := range []int{1, 8, 10, 20} {
		b.Run(fmt.Sprintf("Q%02d", q), func(b *testing.B) {
			query := xmark.Query(q)
			var ops int
			for i := 0; i < b.N; i++ {
				plan, _, err := core.CompileQuery(query, benchOpts)
				if err != nil {
					b.Fatal(err)
				}
				if plan, err = opt.Optimize(plan); err != nil {
					b.Fatal(err)
				}
				ops = algebra.CountOps(plan)
			}
			b.ReportMetric(float64(ops), "ops/plan")
		})
	}
}

// BenchmarkMILRoundTrip measures the back-end protocol overhead: emitting
// a compiled plan as a MIL program and parsing it back.
func BenchmarkMILRoundTrip(b *testing.B) {
	plan, _, err := core.CompileQuery(xmark.Query(8), benchOpts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		prog, err := mil.Emit(plan)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mil.Parse(prog); err != nil {
			b.Fatal(err)
		}
	}
}
