package engine

// ForceThetaDemotion makes every theta-join unit of this engine skip the
// band kernel and run its ×, ⊛ and σ one by one — the baseline the
// external differential tests compare the kernel against.
func (e *Engine) ForceThetaDemotion() { e.thetaDemote = "forced" }

// SetPanicHook installs h to run before every kernel (morsel -1) and
// before every morsel a team runs, nil to remove it. Views derived
// afterwards (ForStore, ForCollection) carry it. No evaluation may be in
// flight while it changes.
func (e *Engine) SetPanicHook(h func(morsel int)) { e.panicHook = h }
