package engine

// ForceThetaDemotion makes every theta-join node of this engine skip the
// band kernel and take its fallback, which runs the ×, ⊛ and σ it covers
// one by one — the baseline the external differential tests compare the
// kernel against.
func (e *Engine) ForceThetaDemotion() { e.thetaDemote = "forced" }

// SetPanicHook installs h to run before every kernel, nil to remove it.
// Views derived afterwards (ForStore, ForCollection) carry it. No
// evaluation may be in flight while it changes.
func (e *Engine) SetPanicHook(h func()) { e.panicHook = h }
