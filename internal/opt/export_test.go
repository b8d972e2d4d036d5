package opt

import (
	"fmt"
	"math/rand"

	"pathfinder/internal/algebra"
)

// NormalizeOnce is one normalize sweep of the round driver (CSE +
// projection pruning + the local order rewrites) with no join graph
// isolation: the single-shot baseline TestPipelineBeatsPeephole holds
// the pipeline to.
func NormalizeOnce(root *algebra.Op) (*algebra.Op, error) {
	r, _, err := refNormalize(newPlanIndex(root), new(refScratch))
	if err != nil {
		return nil, err
	}
	if err := algebra.Validate(r.root()); err != nil {
		return nil, fmt.Errorf("normalize produced an invalid plan: %w", err)
	}
	return r.root(), nil
}

// CSE is the pipeline's interning walk alone: the plan every rewrite of
// the pipeline starts from.
func CSE(root *algebra.Op) *algebra.Op { return enter(root).x.root() }

// RandomPlan is the seeded random DAG of the differential tests.
func RandomPlan(seed int64) *algebra.Op { return randomPlan(rand.New(rand.NewSource(seed))) }
