// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): Table 1 (scenario validation), Figure 1 (perception
// throughput demand), Figures 4–6 (per-camera latency series), Figure 7
// (post-deployment estimates), Figure 8 (velocity sensitivity sweep),
// and the headline resource-fraction claim. Each generator returns
// structured data and can render the paper's rows/series as text.
//
// Every generator that runs simulations takes (ctx, eng, …): the
// caller builds one engine per process and passes it to each, so later
// experiments reuse earlier ones' runs and a store-attached engine
// archives and reloads every plain point, figures and ablations
// included.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/scenario"
)

// Options controls experiment scale. The zero value is upgraded to the
// paper's protocol (10 seeds, the Table-1 FPR grid).
type Options struct {
	Seeds     int       // runs per configuration (paper: 10)
	FPRGrid   []float64 // tested rates (paper: 1..10, 15, 30)
	EvalEvery float64   // offline evaluation period, s
}

func (o Options) withDefaults() Options {
	if o.Seeds <= 0 {
		o.Seeds = 10
	}
	if len(o.FPRGrid) == 0 {
		o.FPRGrid = metrics.DefaultFPRGrid()
	}
	if o.EvalEvery <= 0 {
		o.EvalEvery = 0.1
	}
	return o
}

// Table1Row is one scenario row of Table 1.
type Table1Row struct {
	Scenario    string
	EgoSpeedMPH float64
	Front       bool
	Right       bool
	Left        bool
	MRF         metrics.MRF
	// Estimates maps each tested FPR to the maximum estimated FPR across
	// cameras and time, averaged over seeds. Rates below the MRF hold
	// NaN (the paper's N/A: those runs collided).
	Estimates map[float64]float64
	// MaxSumFPR is max(F_c1+F_c2+F_c3) across all valid runs; Fraction
	// divides it by the 3-camera 30-FPR provisioning (90).
	MaxSumFPR float64
	Fraction  float64
}

// Table1 reproduces the paper's Table 1: per scenario, the minimum
// required FPR from closed-loop runs and the offline Zhuyi estimates
// from traces recorded at each tested rate. Scenario rows assemble
// concurrently; every underlying run is scheduled on eng, so the
// estimate pass reuses the MRF search's simulations as cache hits.
func Table1(ctx context.Context, eng *engine.Engine, opt Options) ([]Table1Row, error) {
	opt = opt.withDefaults()
	scenarios := scenario.All()
	rows := make([]Table1Row, len(scenarios))
	err := forEachIndex(len(scenarios), func(i int) error {
		row, err := table1Row(ctx, eng, scenarios[i], opt)
		rows[i] = row
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func table1Row(ctx context.Context, eng *engine.Engine, sc scenario.Scenario, opt Options) (Table1Row, error) {
	row := Table1Row{
		Scenario:    sc.Name,
		EgoSpeedMPH: sc.EgoSpeedMPH,
		Front:       sc.Front,
		Right:       sc.Right,
		Left:        sc.Left,
		Estimates:   make(map[float64]float64, len(opt.FPRGrid)),
	}
	mrf, err := metrics.FindMRF(ctx, eng, sc, opt.FPRGrid, opt.Seeds)
	if err != nil {
		return row, err
	}
	row.MRF = mrf

	// Estimate pass: one batched campaign over every safe rate × seed.
	// The MRF search already simulated exactly these points (its
	// descending waves stop below the MRF), so this pass is ideally all
	// cache hits.
	var jobs []engine.Job
	for _, fpr := range opt.FPRGrid {
		if fpr < mrf.Value {
			row.Estimates[fpr] = math.NaN() // the paper's N/A
			continue
		}
		for seed := int64(1); seed <= int64(opt.Seeds); seed++ {
			jobs = append(jobs, engine.Job{Scenario: sc, FPR: fpr, Seed: seed})
		}
	}
	batch, err := eng.RunBatch(ctx, jobs)
	if err != nil {
		return row, err
	}

	est := core.NewEstimator()
	sums := make(map[float64]float64, len(opt.FPRGrid))
	counts := make(map[float64]int, len(opt.FPRGrid))
	maxSum := 0.0
	// Outcomes follow job submission order (ascending rate, then seed),
	// keeping the float accumulation deterministic. The campaign answers
	// with run summaries; the offline estimate (§3.1) reads the rows.
	for _, o := range batch.Outcomes {
		if o.Result.Collided() {
			continue // rare boundary collision at a nominally safe rate
		}
		tr, err := eng.Trace(ctx, o.Job)
		if err != nil {
			return row, err
		}
		off, err := est.EvaluateTrace(tr, core.OfflineOptions{EvalEvery: opt.EvalEvery})
		if err != nil {
			return row, err
		}
		sums[o.Job.FPR] += off.MaxFPR()
		counts[o.Job.FPR]++
		if s := off.MaxSumFPR(); s > maxSum {
			maxSum = s
		}
	}
	for _, fpr := range opt.FPRGrid {
		if fpr < mrf.Value {
			continue
		}
		if n := counts[fpr]; n > 0 {
			row.Estimates[fpr] = sums[fpr] / float64(n)
		} else {
			row.Estimates[fpr] = math.NaN()
		}
	}
	row.MaxSumFPR = maxSum
	row.Fraction = maxSum / (3 * 30)
	return row, nil
}

// ValidateTable1 checks the paper's central claim on computed rows:
// every estimate at a safe rate is at or above the MRF (a small
// tolerance of one latency grid step absorbs the δl quantization).
func ValidateTable1(rows []Table1Row) []string {
	var violations []string
	for _, row := range rows {
		mrfVal := row.MRF.Value
		if row.MRF.BelowGrid() {
			mrfVal = 1 // "<1": any estimate >= its idle floor of 1 passes
		}
		for fpr, estFPR := range row.Estimates {
			if math.IsNaN(estFPR) {
				continue
			}
			// One δl grid step of tolerance: at latency l the adjacent
			// grid cell is l+δl.
			tol := mrfVal - 1/(1/mrfVal+0.033) + 1e-9
			if estFPR < mrfVal-tol {
				violations = append(violations,
					fmt.Sprintf("%s @%g FPR: estimate %.2f below MRF %s", row.Scenario, fpr, estFPR, row.MRF))
			}
		}
	}
	sort.Strings(violations)
	return violations
}

// WriteTable1 renders rows the way the paper prints Table 1.
func WriteTable1(w io.Writer, rows []Table1Row, grid []float64) {
	if len(grid) == 0 {
		grid = metrics.DefaultFPRGrid()
	}
	fmt.Fprintf(w, "%-28s %5s %5s %5s %5s %6s", "Scenario", "mph", "Front", "Right", "Left", "MRF")
	for _, f := range grid {
		fmt.Fprintf(w, " %5g", f)
	}
	fmt.Fprintf(w, " %9s %8s\n", "maxSum", "Fraction")
	for _, row := range rows {
		fmt.Fprintf(w, "%-28s %5g %5s %5s %5s %6s",
			row.Scenario, row.EgoSpeedMPH, yn(row.Front), yn(row.Right), yn(row.Left), row.MRF.String())
		for _, f := range grid {
			v := row.Estimates[f]
			if math.IsNaN(v) {
				fmt.Fprintf(w, " %5s", "N/A")
			} else {
				fmt.Fprintf(w, " %5.1f", v)
			}
		}
		fmt.Fprintf(w, " %9.0f %8.2f\n", row.MaxSumFPR, row.Fraction)
	}
}

func yn(b bool) string {
	if b {
		return "Yes"
	}
	return "No"
}

// MaxFraction returns the largest resource fraction across rows — the
// abstract's "36% or fewer frames" headline number.
func MaxFraction(rows []Table1Row) float64 {
	maxFrac := 0.0
	for _, r := range rows {
		if r.Fraction > maxFrac {
			maxFrac = r.Fraction
		}
	}
	return maxFrac
}
