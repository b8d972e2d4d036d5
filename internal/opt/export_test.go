package opt

import (
	"fmt"

	"pathfinder/internal/algebra"
)

// NormalizeOnce is one normalize sweep (CSE + projection fusion/pruning
// + the local order rewrites) with no join graph isolation: the
// single-shot baseline TestPipelineBeatsPeephole holds the pipeline to.
func NormalizeOnce(root *algebra.Op) (*algebra.Op, error) {
	r, err := normalize(newPlanIndex(root, 0), new(scratch))
	if err != nil {
		return nil, err
	}
	if err := algebra.Validate(r.root()); err != nil {
		return nil, fmt.Errorf("normalize produced an invalid plan: %w", err)
	}
	return r.root(), nil
}
