package bench

import (
	"strings"
	"testing"
	"time"
)

func TestRunTinyBenchmark(t *testing.T) {
	res, err := Run(Config{
		SFs:          []float64{0.001, 0.002},
		Queries:      []int{1, 6, 8, 11},
		Budget:       20 * time.Second,
		WithBaseline: true,
		Optimize:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 2 {
		t.Fatalf("instances = %d", len(res.Instances))
	}
	for _, inst := range res.Instances {
		for _, q := range []int{1, 6, 8, 11} {
			pf := inst.PF[q]
			if pf.Err != "" {
				t.Errorf("sf=%g Q%d pathfinder error: %s", inst.SF, q, pf.Err)
			}
			nav := inst.Nav[q]
			if nav.Err != "" {
				t.Errorf("sf=%g Q%d baseline error: %s", inst.SF, q, nav.Err)
			}
		}
		if inst.Storage.Nodes == 0 || inst.XMLBytes == 0 {
			t.Error("storage report missing")
		}
	}
	t3 := res.Table3()
	for _, want := range []string{"Table 3", "Nav", "PF", " 11 |"} {
		if !strings.Contains(t3, want) {
			t.Errorf("table3 missing %q:\n%s", want, t3)
		}
	}
	f4 := res.Figure4()
	if !strings.Contains(f4, "normalized to sf=0.002") {
		t.Errorf("figure4 reference wrong:\n%s", f4)
	}
	st := res.Storage()
	if !strings.Contains(st, "ratio") {
		t.Errorf("storage report:\n%s", st)
	}
}

func TestDNFPropagation(t *testing.T) {
	// An absurdly small budget forces DNF at the first size and the skip
	// at the second.
	res, err := Run(Config{
		SFs:          []float64{0.002, 0.004},
		Queries:      []int{10},
		Budget:       1 * time.Nanosecond,
		WithBaseline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Instances[0].PF[10]
	second := res.Instances[1].PF[10]
	if !first.DNF || !second.DNF {
		t.Errorf("expected DNF at both sizes: %+v %+v", first, second)
	}
	// The second size must have been skipped (recorded with zero time).
	if second.D != 0 {
		t.Errorf("second size should be skipped, ran %v", second.D)
	}
	if s := first.String(); s != "DNF" {
		t.Errorf("cell rendering = %q", s)
	}
}

func TestCSVOutput(t *testing.T) {
	res, err := Run(Config{
		SFs:          []float64{0.001},
		Queries:      []int{1},
		Budget:       30 * time.Second,
		WithBaseline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	csv := res.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 { // header + pathfinder + baseline
		t.Fatalf("csv lines = %d:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "query,sf,engine") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(csv, "Q1,0.001,pathfinder,") ||
		!strings.Contains(csv, "Q1,0.001,baseline,") {
		t.Errorf("rows missing:\n%s", csv)
	}
}

func TestCellString(t *testing.T) {
	if (Cell{D: 1500 * time.Millisecond}).String() != "1.500" {
		t.Error("seconds rendering")
	}
	if (Cell{Err: "x"}).String() != "ERR" {
		t.Error("error rendering")
	}
}

func TestFmtBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		2 << 10: "2.0KB",
		3 << 20: "3.0MB",
		1 << 30: "1.0GB",
	}
	for n, want := range cases {
		if got := fmtBytes(n); got != want {
			t.Errorf("fmtBytes(%d) = %q, want %q", n, got, want)
		}
	}
}
