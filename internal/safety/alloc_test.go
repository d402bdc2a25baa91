//go:build !race

// Race instrumentation perturbs allocation counts, so this gate only
// runs in non-race builds.

package safety

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/world"
)

// TestRatesAllocBudget: once warmed up, a control step on a 4-actor
// scene allocates the fresh rate map Rates returns (the map and its
// group) and little else; the budget leaves slack for the check log's
// amortized growth. With a new estimator scratch per step, this scene
// read 55 allocations per step.
func TestRatesAllocBudget(t *testing.T) {
	const budget = 4
	c := newTestController(DefaultControllerConfig())
	ego := egoAgent(25)
	wm := []world.Agent{
		threatAgent(60),
		{ID: "lead", Pose: geom.Pose{Pos: geom.V(35, 0)}, Speed: 20, Length: 4.6, Width: 1.9},
		{ID: "left", Pose: geom.Pose{Pos: geom.V(5, 3.5)}, Speed: 27, Length: 4.6, Width: 1.9},
		{ID: "right", Pose: geom.Pose{Pos: geom.V(-10, -3.5), Heading: 0.05}, Speed: 30, Length: 4.6, Width: 1.9},
	}
	now := 0.0
	step := func() {
		now += 0.1
		c.Rates(now, ego, wm)
	}
	for i := 0; i < 10; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs > budget {
		t.Errorf("Rates allocated %.1f times per step, budget %d", allocs, budget)
	} else {
		t.Logf("Rates allocated %.1f times per step, budget %d", allocs, budget)
	}
}
