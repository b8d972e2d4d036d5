package bench

import (
	"fmt"
	"math"
	"strings"
)

// Table3 renders the measurements the way the paper's Table 3 does: one
// row per query, per instance size a baseline column ("X-Hive" in the
// paper, navdom here) and a Pathfinder column, in seconds.
func (r *Results) Table3() string {
	var sb strings.Builder
	sb.WriteString("Table 3: query evaluation times (seconds) per XMark instance\n")
	sb.WriteString("         (Nav = navigational baseline, PF = Pathfinder; DNF = exceeded budget)\n\n")
	sb.WriteString("  Q  |")
	for _, inst := range r.Instances {
		fmt.Fprintf(&sb, "  sf=%-7g (%s)   |", inst.SF, fmtBytes(inst.XMLBytes))
	}
	sb.WriteString("\n     |")
	for range r.Instances {
		fmt.Fprintf(&sb, "  %8s  %8s |", "Nav", "PF")
	}
	sb.WriteString("\n")
	sb.WriteString(strings.Repeat("-", 6+len(r.Instances)*23) + "\n")
	for _, q := range r.Cfg.Queries {
		fmt.Fprintf(&sb, " %3d |", q)
		for _, inst := range r.Instances {
			nav := "-"
			if c, ok := inst.Nav[q]; ok {
				nav = c.String()
			}
			pf := "-"
			if c, ok := inst.PF[q]; ok {
				pf = c.String()
			}
			fmt.Fprintf(&sb, "  %8s  %8s |", nav, pf)
		}
		sb.WriteString("\n")
	}
	if r.Cfg.WithBaseline {
		sb.WriteString("\nSpeedups (baseline / Pathfinder) at the largest completed size:\n")
		for _, q := range r.Cfg.Queries {
			for i := len(r.Instances) - 1; i >= 0; i-- {
				inst := r.Instances[i]
				nc, pc := inst.Nav[q], inst.PF[q]
				if nc.DNF && !pc.DNF && pc.Err == "" {
					fmt.Fprintf(&sb, "  Q%-2d sf=%g: baseline DNF, Pathfinder %.3fs\n",
						q, inst.SF, pc.D.Seconds())
					break
				}
				if nc.Err == "" && pc.Err == "" && !nc.DNF && !pc.DNF && pc.D > 0 {
					fmt.Fprintf(&sb, "  Q%-2d sf=%g: %.1fx\n",
						q, inst.SF, nc.D.Seconds()/pc.D.Seconds())
					break
				}
			}
		}
	}
	return sb.String()
}

// Figure4 renders Pathfinder execution times normalized to the reference
// instance (the paper normalizes to the 110 MB instance; we use the middle
// size). A ~10x step per decade of scale factor indicates linear scaling.
// Q11/Q12 are the paper's exceptions — theta joins "quadratic in their
// result" — and still grow faster than linearly, because their result
// does; what they no longer pay is the |A|·|B| product itself: the band
// join is output-sensitive, n log n + |result| (DESIGN.md §15).
func (r *Results) Figure4() string {
	if len(r.Instances) == 0 {
		return "no data"
	}
	ref := r.Instances[len(r.Instances)/2]
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 4: Pathfinder execution times normalized to sf=%g\n\n", ref.SF)
	sb.WriteString("  Q  |")
	for _, inst := range r.Instances {
		fmt.Fprintf(&sb, " sf=%-8g|", inst.SF)
	}
	sb.WriteString(" scaling\n")
	sb.WriteString(strings.Repeat("-", 6+len(r.Instances)*12+9) + "\n")
	for _, q := range r.Cfg.Queries {
		refCell := ref.PF[q]
		fmt.Fprintf(&sb, " %3d |", q)
		var ratios []float64
		for _, inst := range r.Instances {
			c := inst.PF[q]
			if c.DNF || c.Err != "" || refCell.DNF || refCell.Err != "" || refCell.D == 0 {
				fmt.Fprintf(&sb, " %9s |", c.String())
				continue
			}
			ratio := c.D.Seconds() / refCell.D.Seconds()
			ratios = append(ratios, ratio)
			fmt.Fprintf(&sb, " %9.3f |", ratio)
		}
		fmt.Fprintf(&sb, " %s\n", scalingLabel(r, q, ratios))
	}
	return sb.String()
}

// scalingLabel classifies the growth of a query's run time between the
// two largest completed instances: linear queries grow ~10x per factor-10
// size step, quadratic ones ~100x (§3.4: the result size of Q11/Q12). The
// smallest instances are ignored — entity-count floors and fixed
// compilation costs distort them. The threshold sits at the geometric
// midpoint between linear and quadratic growth.
func scalingLabel(r *Results, q int, ratios []float64) string {
	if len(ratios) < 2 {
		return "?"
	}
	last, prev := ratios[len(ratios)-1], ratios[len(ratios)-2]
	if prev <= 0 {
		return "?"
	}
	sfLast := r.Instances[len(r.Instances)-1].SF
	sfPrev := r.Instances[len(r.Instances)-2].SF
	decades := log10(sfLast / sfPrev)
	if decades <= 0 {
		return "?"
	}
	perDecade := pow(last/prev, 1/decades)
	if perDecade < 45 {
		return fmt.Sprintf("~linear (%.0fx/decade)", perDecade)
	}
	return fmt.Sprintf("super-linear (%.0fx/decade)", perDecade)
}

func log10(x float64) float64 { return math.Log10(x) }

func pow(x, y float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, y)
}

// Storage renders the §3.1 storage-overhead report.
func (r *Results) Storage() string {
	var sb strings.Builder
	sb.WriteString("Storage overhead (§3.1): relational encoding vs serialized XML\n\n")
	sb.WriteString("    sf    |   XML bytes | encoded bytes | ratio | nodes      | load time\n")
	sb.WriteString(strings.Repeat("-", 78) + "\n")
	for _, inst := range r.Instances {
		total := inst.Storage.Total()
		fmt.Fprintf(&sb, " %8g | %11s | %13s | %4.0f%% | %10d | %8.3fs\n",
			inst.SF, fmtBytes(inst.XMLBytes), fmtBytes(total),
			100*float64(total)/float64(inst.XMLBytes),
			inst.Storage.Nodes, inst.LoadPF.Seconds())
	}
	return sb.String()
}

// CSV renders the raw measurements machine-readably (one row per query ×
// size × engine), for external plotting of Table 3 / Figure 4.
func (r *Results) CSV() string {
	var sb strings.Builder
	sb.WriteString("query,sf,engine,seconds,dnf,xml_bytes,encoded_bytes\n")
	for _, inst := range r.Instances {
		for _, q := range r.Cfg.Queries {
			writeRow := func(engine string, c Cell, ok bool) {
				if !ok {
					return
				}
				fmt.Fprintf(&sb, "Q%d,%g,%s,%.6f,%t,%d,%d\n",
					q, inst.SF, engine, c.D.Seconds(), c.DNF,
					inst.XMLBytes, inst.Storage.Total())
			}
			c, ok := inst.PF[q]
			writeRow("pathfinder", c, ok)
			c, ok = inst.Nav[q]
			writeRow("baseline", c, ok)
		}
	}
	return sb.String()
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
