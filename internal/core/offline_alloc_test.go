//go:build !race

// The allocation-budget regression gate for the offline evaluator.
// Race instrumentation perturbs allocation counts, so the gate only
// runs in non-race builds (CI runs it as a dedicated step).

package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// mapSink keeps the measured maps escaping, as the result's maps do.
var mapSink map[string]float64

// TestEvaluateTraceAllocBudget pins the evaluator's allocation diet:
// beyond the result's own per-point camera maps (two per point, each
// costing what one filled map costs on this runtime), a whole-trace
// evaluation may allocate only a small constant — the result, its
// Points slice and the scratch growing to working size. One
// allocation per instant beyond the maps already blows the budget.
func TestEvaluateTraceAllocBudget(t *testing.T) {
	const slack = 64
	e := core.NewEstimator()
	perMap := testing.AllocsPerRun(100, func() {
		m := make(map[string]float64, len(e.Cameras))
		for _, cam := range e.Cameras {
			m[cam] = 1
		}
		mapSink = m
	})
	for _, name := range []string{scenario.CutOut, scenario.CutIn} {
		sc, ok := scenario.Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		res, err := sim.Run(sc.Build(10, 1))
		if err != nil {
			t.Fatal(err)
		}
		var points int
		allocs := testing.AllocsPerRun(3, func() {
			off, err := e.EvaluateTrace(res.Trace, core.OfflineOptions{})
			if err != nil {
				t.Fatal(err)
			}
			points = len(off.Points)
		})
		budget := 2*perMap*float64(points) + slack
		t.Logf("%s: %.0f allocs over %d points (budget %.0f, %.0f per map)", name, allocs, points, budget, perMap)
		if points < 50 {
			t.Fatalf("%s: trace too short (%d points)", name, points)
		}
		if allocs > budget {
			t.Errorf("%s: evaluation allocated %.0f times (budget %.0f): the evaluator regressed to per-instant allocation",
				name, allocs, budget)
		}
	}
}
