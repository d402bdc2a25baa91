package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/scenario"
	"repro/internal/world"
)

// BaselineRow compares Zhuyi's per-camera allocation against the
// Suraksha-style minimal uniform rate for one scenario.
type BaselineRow struct {
	Scenario string
	// UniformFPR is the minimal safe uniform per-camera rate found by
	// grid search; UniformTotal multiplies it over the analyzed cameras.
	UniformFPR   float64
	UniformTotal float64
	// ZhuyiPeakSum is Zhuyi's max(F_c1+F_c2+F_c3) from the trace at the
	// uniform rate; ZhuyiMeanSum is the time-averaged demand — the frame
	// volume a Zhuyi-driven allocator actually processes, while the
	// uniform provisioning holds its total continuously.
	ZhuyiPeakSum float64
	ZhuyiMeanSum float64
	// Savings is 1 − mean(Zhuyi)/Uniform (positive = Zhuyi cheaper).
	Savings float64
	// SearchRuns is the grid search's simulation count; ZhuyiRuns is 1
	// (a single trace evaluation).
	SearchRuns int
}

// BaselineComparison runs the Suraksha-style search and the Zhuyi
// evaluation for each scenario, concurrently on eng. The Zhuyi trace
// at the uniform operating point is a cache hit: the grid search's MRF
// waves already simulated it.
func BaselineComparison(ctx context.Context, eng *engine.Engine, opt Options) ([]BaselineRow, error) {
	opt = opt.withDefaults()
	scenarios := scenario.All()
	rows := make([]BaselineRow, len(scenarios))
	err := forEachIndex(len(scenarios), func(i int) error {
		sc := scenarios[i]
		row := BaselineRow{Scenario: sc.Name}
		gs, err := baseline.UniformGridSearch(ctx, eng, sc, opt.FPRGrid, opt.Seeds, 3)
		if err != nil {
			return err
		}
		row.SearchRuns = gs.Runs
		if !gs.Feasible {
			rows[i] = row
			return nil
		}
		row.UniformFPR = gs.MinUniformFPR
		row.UniformTotal = gs.TotalFPR

		// Zhuyi's demand at the uniform operating point.
		tr, err := eng.Trace(ctx, engine.Job{Scenario: sc, FPR: gs.MinUniformFPR, Seed: 1})
		if err != nil {
			return err
		}
		est := core.NewEstimator()
		off, err := est.EvaluateTrace(tr, core.OfflineOptions{EvalEvery: opt.EvalEvery})
		if err != nil {
			return err
		}
		row.ZhuyiPeakSum = off.MaxSumFPR()
		row.ZhuyiMeanSum = off.MeanSumFPR()
		if row.UniformTotal > 0 {
			row.Savings = 1 - row.ZhuyiMeanSum/row.UniformTotal
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// WriteBaselineComparison renders the table plus the combinatorial-cost
// note the paper makes against per-camera grid search.
func WriteBaselineComparison(w io.Writer, rows []BaselineRow, gridSize, seeds int) {
	fmt.Fprintf(w, "%-28s %11s %13s %11s %11s %9s %11s\n",
		"Scenario", "uniformFPR", "uniform-total", "zhuyi-peak", "zhuyi-mean", "savings", "search-runs")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %11.1f %13.1f %11.1f %11.1f %8.0f%% %11d\n",
			r.Scenario, r.UniformFPR, r.UniformTotal, r.ZhuyiPeakSum, r.ZhuyiMeanSum, r.Savings*100, r.SearchRuns)
	}
	fmt.Fprintf(w, "# per-camera grid search over 3 cameras would need %.0f runs; Zhuyi needs one trace pass\n",
		baseline.PerCameraSearchCost(gridSize, 3, seeds))
}

// RSSComparisonRow pairs the RSS response-time bound with Zhuyi's
// tolerable latency for one following geometry.
type RSSComparisonRow struct {
	EgoSpeed  float64 // m/s
	LeadSpeed float64 // m/s
	Gap       float64 // m
	RSSRho    float64 // s (0 when infeasible)
	ZhuyiL    float64 // s (0 when infeasible)
}

// RSSComparison evaluates both models over a grid of following
// geometries. Zhuyi's reaction time includes the K-frame confirmation
// (tr = l + α), so its raw latency l is systematically below the RSS ρ
// for the same gap; the comparison uses AlphaZero so both quantities
// mean "pure response time".
func RSSComparison() []RSSComparisonRow {
	p := core.DefaultParams()
	p.Alpha = core.AlphaZero
	rss := baseline.DefaultRSSParams()

	var rows []RSSComparisonRow
	for _, vr := range []float64{15, 25, 32} {
		for _, gapFactor := range []float64{1.5, 3, 6} {
			vf := vr * 0.7
			gap := vr * gapFactor
			row := RSSComparisonRow{EgoSpeed: vr, LeadSpeed: vf, Gap: gap}

			if r := baseline.RSSLatency(rss, vr, vf, gap); r.Feasible {
				row.RSSRho = r.Rho
			}

			ego := core.EgoState{Pose: geom.Pose{Pos: geom.V(0, 0)}, Speed: vr, Length: 4.6, Width: 1.9}
			traj := constSpeedTraj(gap+4.6, vf, p.Horizon)
			if zr := core.TolerableLatency(ego, traj, [2]float64{4.6, 1.9}, p.LMin, p); zr.Feasible {
				row.ZhuyiL = zr.Latency
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func constSpeedTraj(startX, speed, horizon float64) world.Trajectory {
	var pts []world.TrajectoryPoint
	for t := 0.0; t <= horizon; t += 0.2 {
		pts = append(pts, world.TrajectoryPoint{T: t, Pos: geom.V(startX+speed*t, 0), Speed: speed})
	}
	return world.Trajectory{ActorID: "lead", Prob: 1, Points: pts}
}

// WriteRSSComparison renders the RSS-vs-Zhuyi table.
func WriteRSSComparison(w io.Writer, rows []RSSComparisonRow) {
	fmt.Fprintf(w, "# RSS response bound vs Zhuyi tolerable latency (alpha = 0)\n")
	fmt.Fprintf(w, "%8s %9s %7s %10s %10s\n", "ego m/s", "lead m/s", "gap m", "RSS rho s", "Zhuyi l s")
	for _, r := range rows {
		fmt.Fprintf(w, "%8.1f %9.1f %7.1f %10.3f %10.3f\n", r.EgoSpeed, r.LeadSpeed, r.Gap, r.RSSRho, r.ZhuyiL)
	}
}
