package check

import (
	"pathfinder/internal/algebra"
	"pathfinder/internal/opt"
)

// ForgeProperties makes the audit see the properties opt derives as
// forge leaves them, until the returned function restores the
// derivation. No check may be running while it changes.
func ForgeProperties(forge func(ops []*algebra.Op, props []opt.Props)) (restore func()) {
	planProperties = func(root *algebra.Op) ([]*algebra.Op, []opt.Props) {
		ops, props := opt.PlanProperties(root)
		forge(ops, props)
		return ops, props
	}
	return func() { planProperties = opt.PlanProperties }
}
