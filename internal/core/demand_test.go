package core

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/world"
)

func TestDemandPaperExample(t *testing.T) {
	// §4.2: "For a scenario with 2 actors and a single future prediction,
	// the compute demand is capped at 60 kilo-ops."
	p := DefaultParams()
	d := NewDemand(2, 1, p)
	if got := d.Ops(); got != 60000 {
		t.Errorf("Ops = %d, want 60000 (2*1*10*30*100)", got)
	}
	// "For processors offering 10+ GOPS, the Zhuyi model should execute
	// within 2 ms." — 60 kops / 10 GOPS = 6 µs, far inside the bound.
	if sec := d.ExecutionSeconds(10e9); sec > 0.002 {
		t.Errorf("execution time %v s exceeds the paper's 2 ms bound", sec)
	}
	if d.ExecutionSeconds(0) != 0 {
		t.Error("zero throughput should yield 0")
	}
}

func TestDemandScalesLinearly(t *testing.T) {
	p := DefaultParams()
	base := NewDemand(1, 1, p).Ops()
	if NewDemand(4, 1, p).Ops() != 4*base {
		t.Error("not linear in actors")
	}
	if NewDemand(1, 5, p).Ops() != 5*base {
		t.Error("not linear in trajectories")
	}
}

func TestMeasuredOpsBoundedByAnalyticDemand(t *testing.T) {
	// The estimator's actual constraint evaluations must stay within the
	// paper's worst-case |A|*|T|*M*L bound.
	e := NewEstimator()
	ego := world.Agent{ID: world.EgoID, Pose: geom.Pose{Pos: geom.V(0, 0)}, Speed: 30, Length: 4.6, Width: 1.9}
	obstacle := world.Agent{ID: "obs", Pose: geom.Pose{Pos: geom.V(70, 0)}, Length: 4, Width: 1.9, Static: true}
	trajs := map[string][]world.Trajectory{"obs": {staticTraj(70, 0, e.Params.Horizon)}}
	est := e.EstimateSnapshot(0, ego, []world.Agent{obstacle}, trajs, 1.0/30)

	bound := NewDemand(1, 1, e.Params).Ops()
	if got := est.Evals * OpsPerIteration; got > bound {
		t.Errorf("measured ops %d exceed analytic bound %d", got, bound)
	}
	if est.Evals == 0 {
		t.Error("no evaluations recorded")
	}
}
