// Plan explorer: the "look under the hood" demonstration hooks of §4,
// applied to the paper's Figure 5 query
//
//	for $v in (10,20) return $v + 100
//
// Prints every compilation stage: the type-annotated XQuery Core
// equivalent, the loop-lifted relational plan (Figure 5's DAG), the plan
// after the optimizer pipeline, its Graphviz rendering, and the MIL
// program shipped to the back end.
package main

import (
	"fmt"
	"log"

	"pathfinder/internal/algebra"
	"pathfinder/internal/core"
	"pathfinder/internal/engine"
	"pathfinder/internal/mil"
	"pathfinder/internal/opt"
	"pathfinder/internal/serialize"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xqcore"
)

const query = `for $v in (10,20) return $v + 100`

func main() {
	fmt.Printf("query: %s\n\n", query)

	plan, coreExpr, err := core.CompileQuery(query, xqcore.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== type-annotated XQuery Core ==")
	fmt.Println(xqcore.Print(coreExpr))

	fmt.Printf("== loop-lifted relational plan (%d operators, cf. Figure 5) ==\n",
		algebra.CountOps(plan))
	fmt.Println(algebra.TreeString(plan))

	oplan, err := opt.Optimize(plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== after the optimizer pipeline (%d operators) ==\n",
		algebra.CountOps(oplan))
	fmt.Println(algebra.TreeString(oplan))

	fmt.Println("== Graphviz (pipe into `dot -Tsvg`) ==")
	fmt.Println(algebra.Dot(oplan))

	prog, err := mil.Emit(oplan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== MIL program shipped to the back end ==")
	fmt.Println(prog)

	eng := engine.New(xenc.NewStore())
	res, err := eng.Eval(oplan)
	if err != nil {
		log.Fatal(err)
	}
	out, err := serialize.Result(eng.Store, res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== result ==\n%s\n", out)
}
