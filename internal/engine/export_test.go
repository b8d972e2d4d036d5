package engine

import (
	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// ForceThetaDemotion makes every theta-join unit of this engine skip the
// band kernel and run its ×, ⊛ and σ one by one — the baseline the
// external differential tests compare the kernel against.
func (e *Engine) ForceThetaDemotion() { e.thetaDemote = "forced" }

// EvalUnchained evaluates root with its lowered plan's operator chains
// ignored, so every chain member is a scheduler unit of its own — the
// per-operator baseline the chain differentials compare against. The
// chainless plan replaces root's cached one on this engine.
func (e *Engine) EvalUnchained(root *algebra.Op) (*bat.Table, error) {
	plan := *e.Lowered(root)
	plan.Chains = nil
	e.sh.plans.Store(root, &plan)
	return e.Eval(root)
}

// SetPanicHook installs h to run before every kernel (morsel -1) and
// before every morsel a team runs, nil to remove it. Views derived
// afterwards (ForStore, ForCollection) carry it. No evaluation may be in
// flight while it changes.
func (e *Engine) SetPanicHook(h func(morsel int)) { e.panicHook = h }
