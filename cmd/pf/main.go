// Command pf is the Pathfinder command line: it compiles an XQuery
// expression through the full stack (parse → XQuery Core → loop-lifted
// relational algebra → optimized plan) and either executes it against
// documents loaded from the filesystem or prints one of the compilation
// stages — the "look under the hood" facilities of the demonstration (§4).
//
// Usage:
//
//	pf [flags] 'query...'
//	pf [flags] -f query.xq
//
// Examples:
//
//	pf -doc auction.xml 'count(//item)'
//	pf -show plan 'for $v in (10,20) return $v + 100'
//	pf -show dot -f q8.xq | dot -Tsvg > plan.svg
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/check"
	"pathfinder/internal/core"
	"pathfinder/internal/engine"
	"pathfinder/internal/mil"
	"pathfinder/internal/opt"
	"pathfinder/internal/pfstore"
	"pathfinder/internal/physical"
	"pathfinder/internal/serialize"
	"pathfinder/internal/sqlgen"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xqcore"
)

func main() {
	var (
		docPath     = flag.String("doc", "", "document bound to absolute paths (/site/...)")
		storeDir    = flag.String("store", "", "persistent collection catalog directory (*.pfc files)")
		collection  = flag.String("collection", "", "named collection from -store to query (binds absolute paths and bare fn:collection())")
		queryFile   = flag.String("f", "", "read the query from a file")
		show        = flag.String("show", "result", "what to print: result, trace, explain, core, plan (as compiled), opt (as optimized), mil, sql, dot, physical, hist")
		naive       = flag.Bool("naive", false, "disable the staircase join (tree-unaware axis evaluation)")
		checkPlans  = flag.Bool("check", false, "validate plan invariants (schema, order/denseness, physical preconditions) before running, and assert them on live intermediates during execution")
		timing      = flag.Bool("time", false, "print compile/execute timings to stderr")
		interactive = flag.Bool("i", false, "interactive mode: read one query per line from stdin")
	)
	flag.Parse()

	cat := openCatalog(*storeDir, *collection)
	eng := engine.NewWithConfig(xenc.NewStore(), engine.Config{Check: *checkPlans, Catalog: cat})
	eng.Staircase = !*naive
	// fn:doc loads named documents from the filesystem on demand; the
	// -doc document resolves by its base name or full path.
	eng.Resolve = fileResolver(*docPath)
	eng = bindCollection(eng, *collection)
	opts := xqcore.Options{Collection: *collection}
	if *docPath != "" {
		opts.ContextDoc = filepath.Base(*docPath)
	}
	if *interactive {
		repl(eng, opts)
		return
	}
	query := ""
	switch {
	case *queryFile != "":
		b, err := os.ReadFile(*queryFile)
		if err != nil {
			fatal("read query: %v", err)
		}
		query = string(b)
	case flag.NArg() > 0:
		query = flag.Arg(0)
	default:
		fmt.Fprintln(os.Stderr, "usage: pf [flags] 'query'   (see pf -help)")
		os.Exit(2)
	}

	compileStart := time.Now()
	compiled, coreExpr, err := core.CompileQuery(query, opts)
	if err != nil {
		fatal("%v", err)
	}
	if *checkPlans {
		if diags := check.Logical(compiled); len(diags) > 0 {
			fmt.Fprint(os.Stderr, check.Render(diags))
			fatal("check: %d finding(s) in the compiled plan", len(diags))
		}
	}
	optimized, err := opt.Pipeline(compiled)
	if err != nil {
		fatal("optimize: %v", err)
	}
	plan := optimized.Plan
	if *checkPlans {
		if diags := check.Plan(plan); len(diags) > 0 {
			fmt.Fprint(os.Stderr, check.Render(diags))
			fatal("check: %d finding(s) in the final plan", len(diags))
		}
		fmt.Fprintf(os.Stderr, "pf: check ok (%d operators: schema, order/denseness, physical)\n",
			algebra.CountOps(plan))
	}
	compileTime := time.Since(compileStart)

	switch *show {
	case "core":
		fmt.Print(xqcore.Print(coreExpr))
		return
	case "plan":
		// The loop-lifted plan as the compiler emitted it (the paper's
		// Figure 5 is this DAG), before any rewrite.
		fmt.Print(algebra.TreeString(compiled))
		fmt.Printf("(%d operators)\n", algebra.CountOps(compiled))
		return
	case "opt":
		// The per-pass pipeline trace first — the operator counts each
		// pass went in and came out with — then the final plan.
		fmt.Print(optimized.TraceString())
		fmt.Println()
		fmt.Print(algebra.TreeString(plan))
		fmt.Printf("(%d operators)\n", algebra.CountOps(plan))
		return
	case "dot":
		fmt.Print(algebra.Dot(plan))
		return
	case "physical":
		// Each node is noted with the order/denseness properties the
		// optimizer publishes for its operator.
		ops, props := opt.PlanProperties(plan)
		of := make(map[*algebra.Op]opt.Props, len(ops))
		for i, o := range ops {
			of[o] = props[i]
		}
		fmt.Print(physical.Dot(physical.Lower(plan), func(nd *physical.Node) string { return of[nd.Op].String() }))
		return
	case "hist":
		fmt.Println(algebra.HistString(algebra.OpHistogram(plan)))
		return
	case "mil":
		prog, err := mil.Emit(plan)
		if err != nil {
			fatal("emit MIL: %v", err)
		}
		fmt.Print(prog)
		return
	case "sql":
		stmt, err := sqlgen.Emit(plan)
		if err != nil {
			fatal("emit SQL: %v", err)
		}
		fmt.Print(stmt)
		return
	case "result", "trace", "explain":
	default:
		fatal("unknown -show mode %q", *show)
	}

	execStart := time.Now()
	// The lowering runs once; -show explain's footer reads the plan that ran.
	phys := physical.Lower(plan)
	res, tr, err := eng.EvalPlan(context.Background(), phys, *show != "result")
	if err != nil {
		fatal("execute: %v", err)
	}
	switch *show {
	case "trace":
		// Traced execution: print the plan annotated with the row count
		// each operator produced (§4: "Relational plans may be traced to
		// reveal the result computed for any subexpression").
		fmt.Print(algebra.TreeStringAnnotated(plan, func(o *algebra.Op) string {
			if t, ok := tr.Tables[o]; ok {
				return fmt.Sprintf("→ %d rows", t.Rows())
			}
			return ""
		}))
		fmt.Println()
	case "explain":
		// Executor's-eye view: per operator the rows in/out, the wall
		// time, the kernel that ran and the rows it materialized.
		fmt.Print(algebra.TreeStringAnnotated(plan, func(o *algebra.Op) string {
			st, ok := tr.Stats[o]
			if !ok {
				return ""
			}
			ann := fmt.Sprintf("→ %d→%d rows, %v, %s, mat %d",
				st.RowsIn, st.RowsOut, st.Wall.Round(time.Microsecond), st.Kernel, st.RowsMat)
			if st.Sink != "" {
				ann += ", sink " + st.Sink
			}
			return ann
		}))
		thetas := 0
		for _, nd := range phys.Nodes {
			if nd.Theta != nil {
				thetas++
			}
		}
		fmt.Printf("(%d operators, %d pipeline breakers, %d theta joins)\n",
			algebra.CountOps(plan), phys.Breakers(), thetas)
		printThetaJoins(phys, tr)
		fmt.Print(optimized.TraceString())
		fmt.Println()
	}
	out, err := serialize.Result(eng.Store, res)
	if err != nil {
		fatal("serialize: %v", err)
	}
	execTime := time.Since(execStart)
	fmt.Println(out)
	if *timing {
		fmt.Fprintf(os.Stderr, "compile %v, execute %v\n", compileTime, execTime)
	}
}

// printThetaJoins summarizes each theta join of the physical plan for
// -show explain: the predicate, and for a join the band kernel ran its
// lane, the rows probed (both inputs) and the pairs emitted — or, for a
// join whose pairs were only counted, the outer rows probed and the
// pairs counted (its count column's sum) without being emitted. A
// demoted join names the reason; it ran the operators it covers.
func printThetaJoins(phys *physical.Plan, tr *engine.Trace) {
	id := 0
	for _, nd := range phys.Nodes {
		tj := nd.Theta
		if tj == nil {
			continue
		}
		id++
		pred := fmt.Sprintf("theta join #%d: %s %s %s", id, tj.LeftCol, tj.Cmp, tj.RightCol)
		st, ran := tr.Stats[nd.Op]
		switch {
		case !ran:
			fmt.Printf("%s (did not run)\n", pred)
		case strings.Contains(st.Kernel, "(demoted:"):
			fmt.Printf("%s — %s\n", pred, st.Kernel)
		case tj.Count != nil:
			counted := int64(0)
			if t := tr.Tables[nd.Op]; t != nil {
				n := t.MustCol(tj.Count.Col)
				for i := 0; i < t.Rows(); i++ {
					counted += n.ItemAt(i).I
				}
			}
			fmt.Printf("%s — %s, %d rows probed, 0 pairs emitted, %d counted\n",
				pred, st.Kernel, tr.Stats[nd.In[0].Op].RowsOut, counted)
		default:
			fmt.Printf("%s — %s, %d rows probed, %d emitted\n",
				pred, st.Kernel, st.RowsIn, st.RowsOut)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pf: "+format+"\n", args...)
	os.Exit(1)
}

// openCatalog opens the -store catalog when requested; -collection
// without -store is an error (there is nothing to resolve names against).
func openCatalog(dir, collection string) *pfstore.Catalog {
	if dir == "" {
		if collection != "" {
			fatal("-collection requires -store")
		}
		return nil
	}
	cat, err := pfstore.OpenCatalog(dir)
	if err != nil {
		fatal("%v", err)
	}
	return cat
}

// bindCollection rebinds the engine to the named collection's persisted
// store — the reopen-without-re-shredding path.
func bindCollection(eng *engine.Engine, collection string) *engine.Engine {
	if collection == "" {
		return eng
	}
	bound, _, err := eng.ForCollection(collection)
	if err != nil {
		fatal("%v", err)
	}
	return bound
}

// repl is the demonstration's ad-hoc query loop ("users may as well state
// their own ad hoc queries", §4) over the engine main built from the
// flags: the store persists across queries, so documents load once, and
// each query runs on a scratch view of it, so what a query constructs is
// dropped with its result — as in a session against a running server.
func repl(eng *engine.Engine, opts xqcore.Options) {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprint(os.Stderr, "pf> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			fmt.Fprint(os.Stderr, "pf> ")
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		start := time.Now()
		out, err := runOnce(line, eng.ForStore(eng.Store.Scratch(), eng.Collection), opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		} else {
			fmt.Println(out)
			fmt.Fprintf(os.Stderr, "(%v)\n", time.Since(start).Round(time.Microsecond))
		}
		fmt.Fprint(os.Stderr, "pf> ")
	}
}

// runOnce compiles, optimizes and runs one REPL query. With -check
// (eng.Check) both plans are validated first, as for a single query.
func runOnce(query string, eng *engine.Engine, opts xqcore.Options) (string, error) {
	plan, _, err := core.CompileQuery(query, opts)
	if err != nil {
		return "", err
	}
	if eng.Check {
		if err := check.Error(check.Logical(plan)); err != nil {
			return "", err
		}
	}
	if plan, err = opt.Optimize(plan); err != nil {
		return "", err
	}
	if eng.Check {
		if err := check.Error(check.Plan(plan)); err != nil {
			return "", err
		}
		fmt.Fprintf(os.Stderr, "pf: check ok (%d operators: schema, order/denseness, physical)\n",
			algebra.CountOps(plan))
	}
	// The line's lowering goes with its result.
	res, _, err := eng.EvalPlan(context.Background(), physical.Lower(plan), false)
	if err != nil {
		return "", err
	}
	return serialize.Result(eng.Store, res)
}

// fileResolver loads fn:doc targets from the filesystem, mapping the -doc
// document's base name onto its path.
func fileResolver(docPath string) func(*xenc.Store, string) (bat.NodeRef, error) {
	return func(store *xenc.Store, uri string) (bat.NodeRef, error) {
		path := uri
		if docPath != "" && (uri == filepath.Base(docPath) || uri == docPath) {
			path = docPath
		}
		f, err := os.Open(path)
		if err != nil {
			return bat.NodeRef{}, fmt.Errorf("fn:doc(%q): %w", uri, err)
		}
		defer f.Close()
		return store.LoadDocument(uri, f)
	}
}
