// Sensitivity analysis (the paper's Figure 8): sweep the ego's initial
// speed against the actor's end velocity for fixed tolerable distances
// and print the minimum safe FPR heatmaps, plus a comparison of the two
// confirmation-delay (alpha) models.
package main

import (
	"fmt"
	"os"

	zhuyi "repro"
)

func main() {
	for _, sn := range []float64{30, 100} {
		res := zhuyi.Sweep(sn)
		zhuyi.WriteSweep(os.Stdout, res)
		s := zhuyi.SummarizeSweep(res)
		fmt.Printf("# sn=%.0fm: %d feasible, %d need 30+, %d unavoidable; street max %d FPR\n\n",
			s.SN, s.Feasible, s.ThirtyPlus, s.Unavoidable, s.StreetMaxFPR)
	}

	// Ablation: the paper's confirmation-delay model α = K·(l − l0)
	// versus the steady-state α = 0 at a few operating points.
	fmt.Println("alpha-model ablation (sn = 100 m, l0 = 33 ms):")
	fmt.Printf("%10s %10s %14s %14s\n", "ve0(mph)", "van(mph)", "FPR (paper α)", "FPR (α = 0)")
	paper := zhuyi.DefaultParams()
	zero := zhuyi.DefaultParams()
	zero.Alpha = zhuyi.AlphaZero
	for _, pt := range [][2]float64{{30, 10}, {50, 20}, {65, 40}} {
		row := func(p zhuyi.Params) string {
			cells := zhuyi.SweepGrid(
				[]float64{zhuyi.MPHToMPS(pt[0])},
				[]float64{zhuyi.MPHToMPS(pt[1])},
				100, p.LMin, p,
			).Cells[0][0]
			switch {
			case cells.Unavoidable:
				return "unavoidable"
			case cells.ThirtyPlus:
				return "30+"
			default:
				return fmt.Sprintf("%.1f", cells.FPR)
			}
		}
		fmt.Printf("%10.0f %10.0f %14s %14s\n", pt[0], pt[1], row(paper), row(zero))
	}
}
