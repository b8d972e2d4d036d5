package service

import (
	"fmt"
	"slices"
	"testing"

	"pathfinder/internal/physical"
	"pathfinder/internal/xmark"
)

// TestXMarkAdmissionClasses pins which XMark queries the admission
// controller classifies heavy at the service defaults: each of q01–q20
// is compiled as a request would be, lowered and priced with
// physical.Plan.EstCost. A change to the lowering or to the price of a
// plan that moves a query across HeavyCost shows here, not as a shift
// in how a mixed workload queues.
func TestXMarkAdmissionClasses(t *testing.T) {
	cfg := Config{}.withDefaults()
	if unknownRows != 16384 || cfg.HeavyCost != 1<<20 {
		t.Fatalf("service defaults moved: unknownRows %d, HeavyCost %d", unknownRows, cfg.HeavyCost)
	}
	var heavy []int
	for n := 1; n <= 20; n++ {
		plan, err := compile(Request{Query: xmark.Query(n), ContextDoc: "xmark.xml"})
		if err != nil {
			t.Fatalf("q%02d: %v", n, err)
		}
		cost := physical.Lower(plan).EstCost(unknownRows)
		t.Logf("q%02d costs %d", n, cost)
		if cost >= cfg.HeavyCost {
			heavy = append(heavy, n)
		}
	}
	if want := []int{3, 4, 9, 10, 12, 20}; !slices.Equal(heavy, want) {
		t.Errorf("heavy queries %s, want %s", fmt.Sprint(heavy), fmt.Sprint(want))
	}
}
