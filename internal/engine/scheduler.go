package engine

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/physical"
)

// This file implements the parallel DAG scheduler: the loop-lifting
// compiler emits plans whose independent subplans (the per-branch
// document steps of a join query, the lifted arms of conditionals, the
// aggregates of a constructor's attribute list) share nothing but their
// leaves, and MonetDB's MIL interpreter would happily run them on one
// core. Here each unit of the physical plan (an operator or a theta
// join) becomes a schedulable task: dependency counts follow the
// plan's topological order, leaves enter a ready queue, and a bounded
// worker pool drains it, releasing consumers as their last input
// materializes. Every unit runs exactly once per evaluation — shared
// subplans are shared nodes of the lowered plan and hence single tasks.

// OpStat is the per-operator instrumentation record the scheduler (and
// the sequential path) attach to a traced evaluation.
type OpStat struct {
	Wall    time.Duration // time spent applying the operator
	RowsIn  int           // total input rows across all inputs
	RowsOut int           // rows produced
	Worker  int           // scheduler worker that ran it (0 on the sequential path)
	Kernel  string        // physical kernel that actually ran
	RowsMat int           // rows this kernel materialized (gathered/copied), vs. scanned in place

	// Morsels is never set: every kernel runs as one sequential loop.
	//
	// Deprecated: benchmark/inproc.go is its last reader; the
	// benchmark-only change of ROADMAP item 1 deletes the field with it.
	Morsels int

	// Static is the kernel physical.Lower chose for the node, set only
	// when Kernel is a fast path the executor took instead after seeing
	// the input's order or density (rownum[sort] served by
	// rownum[count-sort], hash-join by hash-join[int:dense], …) — each
	// one a case the plan-time properties did not know about.
	Static string

	// Sink is where an ε put its trees: "stream" when only the
	// serializer reads them (physical.Node.Stream) and they become bytes
	// on demand, "fragment" when they were built; "" for other kernels.
	Sink string

	// FusedChain is never set: every node is its own scheduler unit.
	//
	// Deprecated: benchmark/inproc.go is its last reader; the
	// benchmark-only change of ROADMAP item 1 deletes the field with it.
	FusedChain int

	// ThetaJoin is the 1-based id of the theta-join unit the operator ran
	// in when the band kernel took it (0 = ran standalone; a demoted
	// unit's × says why in its kernel name). σ carries the unit's wall
	// time, input rows and materialization under the kernel's own name;
	// × and ⊛ report the emitted pairs with zero Wall/RowsMat.
	ThetaJoin int
}

// Trace is the full instrumentation record of one evaluation. Tables
// holds every operator's intermediate result, with one exception in
// kind: the members of a theta join the band kernel ran hold only the
// pairs that went on to pass σ, and of those only the columns the unit's
// consumers read — the rest of the product never existed.
type Trace struct {
	mu     sync.Mutex
	Tables map[*algebra.Op]*bat.Table
	Stats  map[*algebra.Op]OpStat

	// The views of a demoted theta join's members, which ran one by one
	// and have no scheduler slot, set aside while the query runs for
	// fillTraceTables to turn into Tables afterwards.
	members map[*algebra.Op]*bat.View

	// scheduled records the dispatch decision: the plan went to the
	// parallel DAG scheduler, not the sequential path. Worker ids cannot
	// tell — worker 0 may win every operator of a small plan.
	scheduled bool
}

func (tr *Trace) setScheduled() {
	if tr != nil {
		tr.scheduled = true
	}
}

func newTrace() *Trace {
	return &Trace{
		Tables:  make(map[*algebra.Op]*bat.Table),
		Stats:   make(map[*algebra.Op]OpStat),
		members: make(map[*algebra.Op]*bat.View),
	}
}

// recordStat stores scheduling statistics without an intermediate table —
// the physical executor defers table capture until after execution so
// trace-forced materialization never distorts RowsMat accounting.
func (tr *Trace) recordStat(o *algebra.Op, st OpStat) {
	tr.mu.Lock()
	tr.Stats[o] = st
	tr.mu.Unlock()
}

// setTable stores an operator's materialized intermediate result.
func (tr *Trace) setTable(o *algebra.Op, t *bat.Table) {
	tr.mu.Lock()
	tr.Tables[o] = t
	tr.mu.Unlock()
}

// keepMember sets aside the output view of a unit member that ran as a
// standalone kernel but is not a scheduler unit.
func (tr *Trace) keepMember(o *algebra.Op, v *bat.View) {
	tr.mu.Lock()
	tr.members[o] = v
	tr.mu.Unlock()
}

// WorkerCount resolves the engine's configured pool size: Workers when
// positive, otherwise GOMAXPROCS.
func (e *Engine) WorkerCount() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// EnvWorkers reads the PF_WORKERS environment variable, the
// binary-agnostic way to size the pool (the --workers flags default to
// it). It returns 0 — "use GOMAXPROCS" — when unset or unparsable.
func EnvWorkers() int {
	s := os.Getenv("PF_WORKERS")
	if s == "" {
		return 0
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// physParallel runs the physical plan's units on a bounded worker pool.
// Results live in a slice indexed by unit; each slot is written by
// exactly one worker before any consumer is released (the release
// happens through an atomic dependency counter followed by a channel
// send, both of which establish the necessary happens-before edges), so
// the slots need no lock of their own. The first error cancels the rest.
func (e *Engine) physParallel(ctx context.Context, plan *physical.Plan, tr *Trace) (*bat.Table, error) {
	units := planUnits(plan)
	n := len(units)
	index := make(map[*physical.Node]int, n)
	for i, u := range units {
		index[u.nd] = i
	}
	type pNode struct {
		u         execUnit
		in        []int
		consumers []int
		pending   atomic.Int32
	}
	nodes := make([]pNode, n)
	for i, u := range units {
		p := &nodes[i]
		p.u = u
		ins := u.inputs()
		p.in = make([]int, len(ins))
		for k, c := range ins {
			ci := index[c]
			p.in[k] = ci
			nodes[ci].consumers = append(nodes[ci].consumers, i)
		}
		p.pending.Store(int32(len(ins)))
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// ready is buffered to the unit count (each unit is sent once), so
	// completion-time sends never block a worker.
	ready := make(chan int, n)
	for i := range nodes {
		if len(nodes[i].in) == 0 {
			ready <- i
		}
	}

	results := make([]*bat.View, n)
	if tr != nil {
		defer fillTraceTables(tr, plan, func(nd *physical.Node) *bat.View {
			i, ok := index[nd]
			if !ok {
				return nil // unit interior: no live view
			}
			return results[i]
		})
	}
	var (
		completed atomic.Int32
		done      = make(chan struct{})
		errOnce   sync.Once
		evalErr   error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			evalErr = err
			cancel()
		})
	}

	workers := e.WorkerCount()
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case i := <-ready:
					p := &nodes[i]
					in := make([]*bat.View, len(p.in))
					for k, ci := range p.in {
						in[k] = results[ci]
					}
					v, err := e.runUnit(ctx, p.u, in, tr, worker)
					if err != nil {
						fail(err)
						return
					}
					results[i] = v
					for _, ci := range p.consumers {
						if nodes[ci].pending.Add(-1) == 0 {
							ready <- ci
						}
					}
					if int(completed.Add(1)) == n {
						close(done)
					}
				}
			}
		}(w)
	}

	select {
	case <-done:
	case <-ctx.Done():
	}
	cancel()
	wg.Wait()
	if evalErr != nil {
		return nil, evalErr
	}
	if err := ctx.Err(); err != nil && completed.Load() != int32(n) {
		return nil, err
	}
	return results[index[plan.Root]].Materialize(), nil
}
