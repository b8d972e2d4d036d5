package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// Morsel-driven intra-operator parallelism (the HyPer execution model):
// a kernel's input selection is carved into fixed-size row ranges
// (morsels) and a small team of goroutines claims them from a shared
// atomic cursor — work stealing in its simplest form, since an idle
// worker always takes the next unclaimed morsel regardless of which
// worker claimed the previous one. Parallelism therefore scales with
// data size, not plan shape: a single long operator chain saturates the
// machine as soon as one operator's input is large.
//
// Both parallelism levels — the DAG scheduler's operator tasks and the
// morsel teams inside an operator — share one worker budget
// (Config.Workers, default GOMAXPROCS). Engine.working counts busy
// workers; an operator host holds one slot for itself while executing
// and a morsel team reserves only the spare slots, so the process never
// runs more than the configured number of CPU-bound goroutines.
//
// Every parallel kernel is order-preserving by construction: morsels
// are claimed in ascending order but each writes to its own slot of a
// per-morsel output array, and the host stitches the slots in morsel
// order. The result is byte-identical to the sequential scan for every
// worker count — the property the differential tests pin down.

// DefaultMorselRows is the morsel granularity: large enough that the
// per-morsel claim (one atomic add) vanishes next to the row work,
// small enough that a skewed morsel cannot leave the team idle long.
const DefaultMorselRows = 16384

// morselRows resolves the engine's morsel size: MorselRows when
// positive, DefaultMorselRows when zero; negative disables morsel
// parallelism entirely (every kernel runs its sequential path).
func (e *Engine) morselRows() int {
	switch {
	case e.MorselRows > 0:
		return e.MorselRows
	case e.MorselRows < 0:
		return 0
	}
	return DefaultMorselRows
}

// reserveWorkers claims up to want spare slots from the shared worker
// budget, returning how many it got (possibly zero — the reservation
// never blocks; an operator that gets no helpers just runs
// sequentially). The caller already holds its own slot.
func (e *Engine) reserveWorkers(want int) int {
	limit := int32(e.WorkerCount())
	for want > 0 {
		cur := e.sh.working.Load()
		spare := limit - cur
		if spare <= 0 {
			return 0
		}
		n := int32(want)
		if n > spare {
			n = spare
		}
		if e.sh.working.CompareAndSwap(cur, cur+n) {
			return int(n)
		}
	}
	return 0
}

// releaseWorkers returns reserved slots to the budget.
func (e *Engine) releaseWorkers(n int) {
	if n > 0 {
		e.sh.working.Add(-int32(n))
	}
}

// morsels is the per-kernel handle for morsel execution: it decides the
// split (sequential unless the lowering marked the operator Parallel),
// runs the per-morsel closures on the team, and records what happened
// for the evaluation trace.
type morsels struct {
	e   *Engine
	ctx context.Context
	par bool // lowering marked this operator morsel-parallel

	n       int // morsels actually run (0 = kernel never split)
	workers int // team size of the largest run (0 = never split)
}

// split carves n rows into morsels when the operator is parallel and the
// input is big enough to yield at least two; otherwise one covering
// range (possibly empty), which every kernel treats as "run the
// sequential path".
func (m *morsels) split(n int) []bat.Range {
	size := m.e.morselRows()
	if !m.par || size <= 0 || n <= size {
		return []bat.Range{{Lo: 0, Hi: max(n, 0)}}
	}
	return bat.SplitRows(n, size)
}

// run executes fn(i) for every morsel index on the caller plus any spare
// workers it can reserve. Morsels are claimed in ascending order from an
// atomic cursor; on failure the team drains its claimed morsels and the
// error of the lowest-indexed failing morsel wins — the same error the
// sequential scan would have hit first, since every morsel below the
// failing one was claimed before it and runs to completion.
func (m *morsels) run(nm int, fn func(i int) error) error {
	if nm > m.n {
		m.n = nm
	}
	if nm < 2 {
		for i := 0; i < nm; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	extra := m.e.reserveWorkers(nm - 1)
	if extra == 0 {
		for i := 0; i < nm; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	defer m.e.releaseWorkers(extra)
	if extra+1 > m.workers {
		m.workers = extra + 1
	}
	var (
		cursor atomic.Int64
		failed atomic.Bool
		errs   = make([]error, nm)
		wg     sync.WaitGroup
	)
	work := func() {
		for !failed.Load() {
			i := int(cursor.Add(1) - 1)
			if i >= nm {
				return
			}
			if err := m.ctx.Err(); err != nil {
				errs[i] = err
				failed.Store(true)
				return
			}
			if err := m.call(fn, i); err != nil {
				errs[i] = err
				failed.Store(true)
			}
		}
	}
	for w := 0; w < extra; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// call runs morsel i of a team. A team's goroutines are not the kernel's
// host, whose recover (runNode) cannot see them, so a panic in fn is
// turned into the morsel's error here — a *KernelPanic the host names.
func (m *morsels) call(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &KernelPanic{Value: r}
		}
	}()
	if m.e.panicHook != nil {
		m.e.panicHook(i)
	}
	return fn(i)
}

// KernelPanic is the evaluation error of a kernel that panicked: the
// query fails, the process and every other query go on. Op and Kernel
// name where it happened (Kernel is the node's static kernel); Value is
// what the kernel panicked with.
type KernelPanic struct {
	Op     algebra.OpKind
	Kernel string
	Value  any
}

func (p *KernelPanic) Error() string {
	return fmt.Sprintf("%s [%s]: kernel panic: %v", p.Op, p.Kernel, p.Value)
}

// recoverKernel, deferred by a kernel's host, turns a panic into *err.
func recoverKernel(err *error, op algebra.OpKind, kernel string) {
	if r := recover(); r != nil {
		*err = &KernelPanic{Op: op, Kernel: kernel, Value: r}
	}
}

// wrapKernelErr prefixes a kernel's error with its operator, as every
// evaluation error is; a panic recovered on a morsel team gets its
// operator and kernel filled in instead.
func wrapKernelErr(err error, op algebra.OpKind, kernel string) error {
	var kp *KernelPanic
	if errors.As(err, &kp) && kp.Kernel == "" {
		kp.Op, kp.Kernel = op, kernel
		return kp
	}
	return fmt.Errorf("%s: %w", op, err)
}

// concatSel stitches per-morsel selection buffers in morsel order.
func concatSel(parts [][]int32) []int32 {
	if len(parts) == 1 {
		return parts[0]
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]int32, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// concatVecs stitches per-morsel result vectors in morsel order. All
// parts come from the same kernel over slices of the same input vectors;
// a typed kernel's share a physical type and the builder append is the
// typed copy. A boxed kernel's keep the kind of their own rows, so parts
// that differ merge through bat.NewItems: typed if every row shares one
// kind, as the unsplit kernel's column would be.
func concatVecs(parts []bat.Vec) bat.Vec {
	if len(parts) == 1 {
		return parts[0]
	}
	total, same := 0, true
	for _, p := range parts {
		total += p.Len()
		same = same && p.Type() == parts[0].Type()
	}
	b := bat.NewItems(total)
	if same {
		b = parts[0].New(total)
	}
	for _, p := range parts {
		for i, n := 0, p.Len(); i < n; i++ {
			b.AppendFrom(p, i)
		}
	}
	return b.Build()
}
