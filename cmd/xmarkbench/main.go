// Command xmarkbench regenerates the paper's evaluation section: Table 3
// (XMark query times for Pathfinder and the navigational baseline across
// instance sizes), Figure 4 (Pathfinder times normalized to the middle
// size, exposing the linear-vs-quadratic split of §3.4), and the §3.1
// storage-overhead report. Everything else this repository measures is
// the benchmark in benchmark/ (BENCHMARK.json).
//
// Usage:
//
//	xmarkbench -report table3 -sfs 0.002,0.02,0.2 -budget 30s
//	xmarkbench -report figure4
//	xmarkbench -report storage
//	xmarkbench -report all -queries 8,9,10,11,12
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"pathfinder/internal/bench"
)

func main() {
	var (
		report   = flag.String("report", "all", "table3, figure4, storage, csv, or all")
		sfsFlag  = flag.String("sfs", "0.002,0.02,0.2", "comma-separated scale factors")
		queries  = flag.String("queries", "", "comma-separated query numbers (default all 20)")
		budget   = flag.Duration("budget", 30*time.Second, "per-query time budget before DNF")
		baseline = flag.Bool("baseline", true, "run the navigational baseline too")
		optimize = flag.Bool("opt", true, "run plans through the optimizer pipeline")
		verbose  = flag.Bool("v", false, "progress output on stderr")
	)
	flag.Parse()

	var sfs []float64
	for _, s := range strings.Split(*sfsFlag, ",") {
		sf, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || sf <= 0 {
			fatal("bad scale factor %q", s)
		}
		sfs = append(sfs, sf)
	}
	var qs []int
	if *queries != "" {
		for _, s := range strings.Split(*queries, ",") {
			q, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || q < 1 || q > 20 {
				fatal("bad query number %q", s)
			}
			qs = append(qs, q)
		}
	}

	cfg := bench.Config{
		SFs:          sfs,
		Queries:      qs,
		Budget:       *budget,
		WithBaseline: *baseline,
		Optimize:     *optimize,
	}
	if *verbose {
		cfg.Verbose = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	res, err := bench.Run(cfg)
	if err != nil {
		fatal("%v", err)
	}
	switch *report {
	case "table3":
		fmt.Println(res.Table3())
	case "figure4":
		fmt.Println(res.Figure4())
	case "storage":
		fmt.Println(res.Storage())
	case "csv":
		fmt.Print(res.CSV())
	case "all":
		fmt.Println(res.Storage())
		fmt.Println(res.Table3())
		fmt.Println(res.Figure4())
	default:
		fatal("unknown report %q", *report)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xmarkbench: "+format+"\n", args...)
	os.Exit(1)
}
