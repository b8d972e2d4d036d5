package engine

// ForceThetaDemotion makes every theta-join unit of this engine skip the
// band kernel and run its ×, ⊛ and σ one by one — the baseline the
// external differential tests compare the kernel against.
func (e *Engine) ForceThetaDemotion() { e.thetaDemote = "forced" }
