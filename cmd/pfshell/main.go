// Command pfshell is the front-end half of the demonstration setup (§4):
// it compiles XQuery expressions into MIL programs and ships them to a
// running pfserver, printing the serialized results — the Pathfinder
// compiler as a client of the relational back-end.
//
// Usage:
//
//	pfshell -addr 127.0.0.1:4242 'count(doc("xmark.xml")//item)'
//	pfshell -addr 127.0.0.1:4242 -gen xmark.xml=0.01
//	pfshell -addr 127.0.0.1:4242 -collection auction '/site/people/person'
//	echo 'for $i in doc("xmark.xml")//item return $i/name' | pfshell -addr ...
//
// With -collection the query is shipped as source (the XQ command) bound
// to a named collection from the server's -store catalog; without it the
// query is compiled client-side to a MIL program and shipped as a plan.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pathfinder/internal/core"
	"pathfinder/internal/engine"
	"pathfinder/internal/mil"
	"pathfinder/internal/opt"
	"pathfinder/internal/xqcore"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:4242", "pfserver address")
		gen     = flag.String("gen", "", "ask the server to generate an instance: uri=sf")
		ctxDoc  = flag.String("doc", "", "document bound to absolute paths")
		coll    = flag.String("collection", "", "named collection from the server's -store catalog; ships the query as source instead of a MIL plan")
		showMIL = flag.Bool("mil", false, "print the shipped MIL program to stderr")
	)
	flag.Parse()

	client, err := mil.Dial(*addr)
	if err != nil {
		fatal("connect: %v", err)
	}
	defer client.Close()

	if *gen != "" {
		uri, sfStr, ok := strings.Cut(*gen, "=")
		if !ok {
			fatal("bad -gen %q (want uri=sf)", *gen)
		}
		if _, err := strconv.ParseFloat(sfStr, 64); err != nil {
			fatal("bad scale factor %q", sfStr)
		}
		msg, err := client.Gen(uri, mustFloat(sfStr))
		if err != nil {
			fatal("GEN: %v", err)
		}
		fmt.Fprintf(os.Stderr, "pfshell: %s\n", msg)
	}

	queries := flag.Args()
	if len(queries) == 0 && *gen == "" {
		// Read one query from stdin.
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		var sb strings.Builder
		for sc.Scan() {
			sb.WriteString(sc.Text())
			sb.WriteByte('\n')
		}
		if strings.TrimSpace(sb.String()) != "" {
			queries = append(queries, sb.String())
		}
	}

	for _, q := range queries {
		if *coll != "" {
			// Collection-bound queries ship as source: the server compiles
			// them against its catalog, so the plan's surrogates resolve in
			// the collection's own store.
			out, err := client.ExecXQReq(engine.QueryRequest{Query: q, Collection: *coll, ContextDoc: *ctxDoc})
			if err != nil {
				fatal("execute: %v", err)
			}
			fmt.Println(out)
			continue
		}
		plan, _, err := core.CompileQuery(q, xqcore.Options{ContextDoc: *ctxDoc})
		if err != nil {
			fatal("compile: %v", err)
		}
		if plan, err = opt.Optimize(plan); err != nil {
			fatal("optimize: %v", err)
		}
		prog, err := mil.Emit(plan)
		if err != nil {
			fatal("emit: %v", err)
		}
		if *showMIL {
			fmt.Fprint(os.Stderr, prog)
		}
		out, err := client.ExecMIL(prog)
		if err != nil {
			fatal("execute: %v", err)
		}
		fmt.Println(out)
	}
}

func mustFloat(s string) float64 {
	f, _ := strconv.ParseFloat(s, 64)
	return f
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pfshell: "+format+"\n", args...)
	os.Exit(1)
}
