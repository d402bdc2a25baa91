package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/scenario"
)

// AblationRow is one parameter setting's effect on the offline
// estimates of a reference scenario trace.
type AblationRow struct {
	Label     string
	MaxFPR    float64 // max estimated FPR over the trace
	MaxSumFPR float64
	Evals     int // total constraint evaluations over the trace
}

// ablate evaluates the reference trace all ablations share (the
// cut-out-fast scenario at 30 FPR, seed 1, read through eng.Trace — a
// cache hit whenever Table 1 or the figures already ran that point)
// once per parameter setting, concurrently, with the paper's
// 99th-percentile aggregation. Each evaluation builds its own
// estimator and only reads the shared trace.
func ablate(ctx context.Context, eng *engine.Engine, labels []string, params []core.Params) ([]AblationRow, error) {
	sc, _ := scenario.ByName(scenario.CutOutFast)
	tr, err := eng.Trace(ctx, engine.Job{Scenario: sc, FPR: 30, Seed: 1})
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(params))
	err = forEachIndex(len(params), func(i int) error {
		e := core.NewEstimator()
		e.Params = params[i]
		off, err := e.EvaluateTrace(tr, core.OfflineOptions{})
		if err != nil {
			return err
		}
		evals := 0
		for _, pt := range off.Points {
			evals += pt.Evals
		}
		rows[i] = AblationRow{Label: labels[i], MaxFPR: off.MaxFPR(), MaxSumFPR: off.MaxSumFPR(), Evals: evals}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// ConfirmationDepthAblation sweeps the confirmation depth K
// (DESIGN.md §5): deeper confirmation inflates the reaction time and
// the estimated rates.
func ConfirmationDepthAblation(ctx context.Context, eng *engine.Engine, ks []int) ([]AblationRow, error) {
	if len(ks) == 0 {
		ks = []int{1, 3, 5, 8}
	}
	labels := make([]string, len(ks))
	params := make([]core.Params, len(ks))
	for i, k := range ks {
		labels[i] = fmt.Sprintf("K=%d", k)
		params[i] = core.DefaultParams()
		params[i].K = k
	}
	return ablate(ctx, eng, labels, params)
}

// AlphaModelAblation compares the paper's confirmation-delay model with
// the steady-state assumption on the same trace.
func AlphaModelAblation(ctx context.Context, eng *engine.Engine) ([]AblationRow, error) {
	steady := core.DefaultParams()
	steady.Alpha = core.AlphaZero
	return ablate(ctx, eng,
		[]string{"alpha=K(l-l0) (paper)", "alpha=0 (steady state)"},
		[]core.Params{core.DefaultParams(), steady})
}

// SearchModeAblation compares the Eq.-3 accelerated stepping against
// naive fixed stepping — the paper's performance optimization.
func SearchModeAblation(ctx context.Context, eng *engine.Engine) ([]AblationRow, error) {
	naive := core.DefaultParams()
	naive.NaiveSearch = true
	return ablate(ctx, eng,
		[]string{"eq3 accelerated", "naive 10ms steps"},
		[]core.Params{core.DefaultParams(), naive})
}

// UncertaintyAblation sweeps the perception-uncertainty extension's
// position sigma (§5 future work implemented in core.Uncertainty).
func UncertaintyAblation(ctx context.Context, eng *engine.Engine, sigmas []float64) ([]AblationRow, error) {
	if len(sigmas) == 0 {
		sigmas = []float64{0, 0.5, 1, 2}
	}
	labels := make([]string, len(sigmas))
	params := make([]core.Params, len(sigmas))
	for i, sigma := range sigmas {
		labels[i] = fmt.Sprintf("sigma=%.1fm", sigma)
		params[i] = core.Uncertainty{PosSigma: sigma, SpeedSigma: sigma / 2}.Apply(core.DefaultParams())
	}
	return ablate(ctx, eng, labels, params)
}

// WriteAblation renders ablation rows.
func WriteAblation(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintf(w, "# %s\n", title)
	fmt.Fprintf(w, "%-26s %10s %10s %12s\n", "setting", "maxFPR", "maxSum", "evals")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %10.1f %10.1f %12d\n", r.Label, r.MaxFPR, r.MaxSumFPR, r.Evals)
	}
}

// AggregationAblation compares Eq. 4 modes on the online estimator
// (multi-hypothesis predictions make the modes diverge): the Figure-7
// flow with each aggregation.
type AggregationRow struct {
	Label      string
	MinLatency float64 // tightest online front-camera latency, s
	Variance   float64 // vs the offline ground truth
}

// AggregationAblation runs the cut-in online estimation on eng under
// each aggregation mode.
func AggregationAblation(ctx context.Context, eng *engine.Engine) ([]AggregationRow, error) {
	modes := []struct {
		label string
		agg   core.AggregateOptions
	}{
		{"pessimistic (max FPR)", core.AggregateOptions{Mode: core.AggPessimistic}},
		{"p99", core.AggregateOptions{Mode: core.AggPercentile, Percentile: 99}},
		{"p90", core.AggregateOptions{Mode: core.AggPercentile, Percentile: 90}},
		{"weighted mean", core.AggregateOptions{Mode: core.AggMean}},
	}
	rows := make([]AggregationRow, len(modes))
	err := forEachIndex(len(modes), func(i int) error {
		s, err := figure7WithAgg(ctx, eng, 30, 1, modes[i].agg)
		if err != nil {
			return err
		}
		rows[i] = AggregationRow{
			Label:      modes[i].label,
			MinLatency: s.MinOnline(),
			Variance:   s.Variance(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// WriteAggregationAblation renders the comparison.
func WriteAggregationAblation(w io.Writer, rows []AggregationRow) {
	fmt.Fprintf(w, "# Eq.-4 aggregation modes on the online Cut-in estimates\n")
	fmt.Fprintf(w, "%-24s %16s %14s\n", "mode", "min latency(ms)", "variance(s²)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %16.0f %14.4f\n", r.Label, r.MinLatency*1000, r.Variance)
	}
}
