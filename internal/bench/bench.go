// Package bench implements the experiment harness reproducing the paper's
// evaluation (§3): Table 3 (XMark query times, Pathfinder vs the
// navigational baseline, across instance sizes), Figure 4 (execution times
// normalized to a reference size), and the §3.1 storage-overhead numbers.
package bench

import (
	"context"
	"fmt"
	"time"

	"pathfinder/internal/core"
	"pathfinder/internal/engine"
	"pathfinder/internal/navdom"
	"pathfinder/internal/opt"
	"pathfinder/internal/physical"
	"pathfinder/internal/serialize"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

// Config controls an XMark benchmark run.
type Config struct {
	SFs          []float64     // instance sizes (the paper uses factor-10 steps)
	Queries      []int         // query numbers; nil = all 20
	Budget       time.Duration // per-query time budget; exceeding it records DNF
	WithBaseline bool          // also run the navigational baseline
	Optimize     bool          // run plans through the optimizer pipeline (opt.Optimize)
	Workers      int           // engine worker pool size; 0 = GOMAXPROCS, 1 = sequential
	Verbose      func(format string, args ...any)
}

// Cell is one measurement.
type Cell struct {
	D   time.Duration
	DNF bool // did not finish within the budget (or was skipped after a smaller size DNFed)
	Err string
}

func (c Cell) String() string {
	if c.Err != "" {
		return "ERR"
	}
	if c.DNF {
		return "DNF"
	}
	return fmt.Sprintf("%.3f", c.D.Seconds())
}

// Instance bundles the per-size measurements.
type Instance struct {
	SF       float64
	XMLBytes int64
	Storage  xenc.StorageReport
	LoadPF   time.Duration
	LoadNav  time.Duration
	PF       map[int]Cell // query → measurement
	Nav      map[int]Cell
}

// Results is a full benchmark run.
type Results struct {
	Cfg       Config
	Instances []*Instance
}

// Run executes the configured benchmark.
func Run(cfg Config) (*Results, error) {
	if cfg.Queries == nil {
		for n := 1; n <= xmark.NumQueries; n++ {
			cfg.Queries = append(cfg.Queries, n)
		}
	}
	if cfg.Budget == 0 {
		cfg.Budget = 10 * time.Second
	}
	logf := cfg.Verbose
	if logf == nil {
		logf = func(string, ...any) {}
	}
	res := &Results{Cfg: cfg}
	opts := xqcore.Options{ContextDoc: "xmark.xml"}

	// DNF propagation: once a query blows its budget at one size, larger
	// sizes are recorded as DNF without running (the harness equivalent of
	// the paper's DNF entries).
	dnfPF := map[int]bool{}
	dnfNav := map[int]bool{}

	for _, sf := range cfg.SFs {
		logf("generating XMark instance sf=%g ...", sf)
		doc := xmark.GenerateString(sf)
		inst := &Instance{SF: sf, XMLBytes: int64(len(doc)),
			PF: map[int]Cell{}, Nav: map[int]Cell{}}

		start := time.Now()
		eng := engine.NewWithConfig(xenc.NewStore(), engine.Config{Workers: cfg.Workers})
		if _, err := eng.Store.LoadDocumentString("xmark.xml", doc); err != nil {
			return nil, fmt.Errorf("sf %g: %w", sf, err)
		}
		inst.LoadPF = time.Since(start)
		inst.Storage = eng.Store.Report()

		var db *navdom.DB
		if cfg.WithBaseline {
			start = time.Now()
			db = navdom.NewDB()
			if _, err := db.LoadString("xmark.xml", doc); err != nil {
				return nil, fmt.Errorf("sf %g: %w", sf, err)
			}
			// The paper tuned X-Hive with value indices on the
			// buyer/@person and profile/@income paths (§3.2).
			db.AddValueIndex("buyer", "person")
			db.AddValueIndex("profile", "income")
			inst.LoadNav = time.Since(start)
		}

		for _, q := range cfg.Queries {
			query := xmark.Query(q)
			if dnfPF[q] {
				inst.PF[q] = Cell{DNF: true}
			} else {
				cell := runPF(eng, query, opts, cfg.Budget, cfg.Optimize)
				inst.PF[q] = cell
				if cell.DNF {
					dnfPF[q] = true
				}
				logf("sf=%g Q%d pathfinder: %s", sf, q, cell)
			}
			if !cfg.WithBaseline {
				continue
			}
			if dnfNav[q] {
				inst.Nav[q] = Cell{DNF: true}
			} else {
				cell := runNav(db, query, opts, cfg.Budget)
				inst.Nav[q] = cell
				if cell.DNF {
					dnfNav[q] = true
				}
				logf("sf=%g Q%d baseline:   %s", sf, q, cell)
			}
		}
		res.Instances = append(res.Instances, inst)
	}
	return res, nil
}

func runPF(eng *engine.Engine, query string, opts xqcore.Options, budget time.Duration, optimize bool) Cell {
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(budget))
	defer cancel()
	plan, _, err := core.CompileQuery(query, opts)
	if err != nil {
		return Cell{Err: err.Error()}
	}
	if optimize {
		if plan, err = opt.Optimize(plan); err != nil {
			return Cell{Err: err.Error()}
		}
	}
	res, _, err := eng.EvalPlan(ctx, physical.Lower(plan), false)
	if err != nil {
		if ctx.Err() != nil {
			return Cell{DNF: true, D: time.Since(start)}
		}
		return Cell{Err: err.Error()}
	}
	if _, err := serialize.Result(eng.Store, res); err != nil {
		return Cell{Err: err.Error()}
	}
	return Cell{D: time.Since(start)}
}

func runNav(db *navdom.DB, query string, opts xqcore.Options, budget time.Duration) Cell {
	start := time.Now()
	ip := navdom.NewInterp(db)
	ip.Deadline = start.Add(budget)
	if _, err := ip.Run(query, opts); err != nil {
		if time.Now().After(ip.Deadline) {
			return Cell{DNF: true, D: time.Since(start)}
		}
		return Cell{Err: err.Error()}
	}
	return Cell{D: time.Since(start)}
}
