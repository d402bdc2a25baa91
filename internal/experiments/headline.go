package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/predict"
	"repro/internal/safety"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// HeadlineRow compares a closed-loop Zhuyi-controlled run against the
// fixed 30-FPR baseline for one scenario: the abstract's claim that
// "the system can maintain safety by processing only 36% or fewer
// frames compared to a default 30-FPR system".
type HeadlineRow struct {
	Scenario       string
	BaselineFrames int     // frames processed by the fixed 30-FPR system
	ZhuyiFrames    int     // frames processed under the Zhuyi controller
	FrameFraction  float64 // Zhuyi / baseline
	BaselineSafe   bool
	ZhuyiSafe      bool
	Alarms         int
	WorstAction    safety.Action
}

// Headline runs every scenario twice on eng — fixed 30 FPR and Zhuyi-
// controlled — computing the rows concurrently. The baseline runs are
// plain cacheable points, while the controller runs carry a Configure
// hook, which the engine always executes (the controller accumulates
// alarm state the row reads back, so serving them from cache would be
// wrong).
func Headline(ctx context.Context, eng *engine.Engine, seed int64) ([]HeadlineRow, error) {
	scenarios := scenario.All()
	rows := make([]HeadlineRow, len(scenarios))
	err := forEachIndex(len(scenarios), func(i int) error {
		row, err := headlineRow(ctx, eng, scenarios[i], seed)
		rows[i] = row
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func headlineRow(ctx context.Context, eng *engine.Engine, sc scenario.Scenario, seed int64) (HeadlineRow, error) {
	row := HeadlineRow{Scenario: sc.Name}

	est := core.NewEstimator()
	est.Cameras = est.Rig.Names() // the controller manages every camera
	ctrl := safety.NewController(
		est,
		predict.MultiHypothesis{Horizon: est.Params.Horizon, Dt: 0.1},
		safety.DefaultControllerConfig(),
	)
	batch, err := eng.RunBatch(ctx, []engine.Job{
		{Scenario: sc, FPR: 30, Seed: seed},
		{
			Scenario: sc, FPR: 30, Seed: seed,
			// Start at the provisioned rate; the controller lowers it.
			Configure: func(cfg *sim.Config) { cfg.RateController = ctrl },
		},
	})
	if err != nil {
		return row, err
	}
	base, res := batch.Outcomes[0].Result, batch.Outcomes[1].Result
	row.BaselineSafe = !base.Collided()
	row.BaselineFrames = totalFrames(base)
	row.ZhuyiSafe = !res.Collided()
	row.ZhuyiFrames = totalFrames(res)
	if row.BaselineFrames > 0 {
		row.FrameFraction = float64(row.ZhuyiFrames) / float64(row.BaselineFrames)
	}
	row.Alarms = ctrl.AlarmCount()
	row.WorstAction = ctrl.WorstAction()
	return row, nil
}

func totalFrames(res *sim.Result) int {
	total := 0
	for _, n := range res.FramesProcessed {
		total += n
	}
	return total
}

// WriteHeadline renders the comparison table.
func WriteHeadline(w io.Writer, rows []HeadlineRow) {
	fmt.Fprintf(w, "%-28s %10s %10s %9s %9s %9s %8s %s\n",
		"Scenario", "base-frm", "zhuyi-frm", "fraction", "base-safe", "zhuyi-safe", "alarms", "action")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %10d %10d %9.2f %9v %9v %8d %s\n",
			r.Scenario, r.BaselineFrames, r.ZhuyiFrames, r.FrameFraction,
			r.BaselineSafe, r.ZhuyiSafe, r.Alarms, r.WorstAction)
	}
}

// MaxFrameFraction returns the largest Zhuyi/baseline frame ratio
// across rows.
func MaxFrameFraction(rows []HeadlineRow) float64 {
	maxFrac := 0.0
	for _, r := range rows {
		if r.FrameFraction > maxFrac {
			maxFrac = r.FrameFraction
		}
	}
	return maxFrac
}

// AllSafe reports whether every Zhuyi-controlled run avoided collision.
func AllSafe(rows []HeadlineRow) bool {
	for _, r := range rows {
		if !r.ZhuyiSafe {
			return false
		}
	}
	return true
}
