package predict

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/world"
)

func movingAgent(speed, accel float64) world.Agent {
	return world.Agent{
		ID:     "a1",
		Pose:   geom.Pose{Pos: geom.V(50, 0), Heading: 0},
		Speed:  speed,
		Accel:  accel,
		Length: 4.6,
		Width:  1.9,
	}
}

// at samples a trajectory at absolute time t.
func at(tr world.Trajectory, t float64) world.TrajectoryPoint {
	s := world.Sampler{Points: tr.Points}
	return s.At(t)
}

// accelProfile is the single constant-acceleration hypothesis every
// MultiHypothesis member is built from, at the agent's own acceleration.
func accelProfile(a world.Agent, now, horizon, dt float64) world.Trajectory {
	trs, _ := appendAccelProfile(nil, nil, a, now, horizon, dt, a.Accel, 1)
	return trs[0]
}

func TestConstantVelocity(t *testing.T) {
	tr := accelProfile(movingAgent(10, 0), 2, 5, 0.1)
	if tr.Prob != 1 {
		t.Fatalf("prob = %v", tr.Prob)
	}
	if tr.Points[0].T != 2 {
		t.Errorf("start = %v", tr.Points[0].T)
	}
	p := at(tr, 4) // 2 s in
	if math.Abs(p.Pos.X-70) > 1e-9 {
		t.Errorf("pos at t=4: %v", p.Pos)
	}
	if p.Speed != 10 {
		t.Errorf("speed = %v", p.Speed)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestConstantAccelBrakesToStop(t *testing.T) {
	tr := accelProfile(movingAgent(10, -5), 0, 8, 0.05)
	// Stops after 2 s, having traveled 10 m; stays stopped.
	p := at(tr, 2.0)
	if math.Abs(p.Speed) > 0.26 {
		t.Errorf("speed at stop time = %v", p.Speed)
	}
	end := at(tr, 8)
	if math.Abs(end.Pos.X-60) > 0.3 {
		t.Errorf("final pos = %v, want ~60", end.Pos.X)
	}
	if end.Speed != 0 {
		t.Errorf("final speed = %v", end.Speed)
	}
}

func TestConstantAccelSpeedNeverNegative(t *testing.T) {
	tr := accelProfile(movingAgent(5, -8), 0, 10, 0.1)
	for _, pt := range tr.Points {
		if pt.Speed < 0 {
			t.Fatalf("negative speed %v at t=%v", pt.Speed, pt.T)
		}
	}
}

func TestMultiHypothesisProbabilitiesSumToOne(t *testing.T) {
	p := MultiHypothesis{Horizon: 6, Dt: 0.1}
	for _, accel := range []float64{0, -3, 2} {
		trs, _ := p.AppendPrediction(nil, nil, movingAgent(15, accel), 0)
		if len(trs) != 4 {
			t.Fatalf("hypothesis count = %d", len(trs))
		}
		sum := 0.0
		for _, tr := range trs {
			sum += tr.Prob
			if err := tr.Validate(); err != nil {
				t.Error(err)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("accel %v: prob sum = %v", accel, sum)
		}
	}
}

func TestMultiHypothesisBrakingBias(t *testing.T) {
	p := MultiHypothesis{Horizon: 6, Dt: 0.1}
	braking, _ := p.AppendPrediction(nil, nil, movingAgent(15, -3), 0)
	// The most likely hypothesis of a braking actor continues braking.
	best := braking[0]
	for _, tr := range braking[1:] {
		if tr.Prob > best.Prob {
			best = tr
		}
	}
	endSpeed := best.Points[len(best.Points)-1].Speed
	if endSpeed >= 15 {
		t.Errorf("most likely hypothesis does not slow down: end speed %v", endSpeed)
	}
}

func TestStaticPredictor(t *testing.T) {
	obs := world.Agent{ID: "obs", Pose: geom.Pose{Pos: geom.V(80, 0)}, Length: 4, Width: 2, Static: true}
	trs, _ := Static{Horizon: 5, Dt: 0.5}.AppendPrediction(nil, nil, obs, 1)
	tr := trs[0]
	if at(tr, 3).Pos != obs.Pose.Pos {
		t.Errorf("static obstacle moved: %v", at(tr, 3).Pos)
	}
	if at(tr, 3).Speed != 0 {
		t.Errorf("static obstacle speed: %v", at(tr, 3).Speed)
	}
}

func TestForAgentDispatch(t *testing.T) {
	mh := MultiHypothesis{Horizon: 5, Dt: 0.1}
	obs := world.Agent{ID: "obs", Pose: geom.Pose{Pos: geom.V(80, 0)}, Length: 4, Width: 2, Static: true}
	trs, _ := AppendForAgent(mh, nil, nil, obs, 0, 5, 0.1)
	if len(trs) != 1 || at(trs[0], 5).Pos != obs.Pose.Pos {
		t.Error("static agent not dispatched to Static predictor")
	}
	mover := movingAgent(10, 0)
	trs, _ = AppendForAgent(mh, nil, nil, mover, 0, 5, 0.1)
	// A cruising agent's most likely hypothesis keeps its speed.
	if len(trs) != 4 || math.Abs(at(trs[0], 5).Pos.X-100) > 1e-9 {
		t.Error("moving agent not dispatched to the provided predictor")
	}
}

func TestSampleCountEdgeCases(t *testing.T) {
	if n := sampleCount(0, 0.1); n < 2 {
		t.Errorf("sampleCount(0) = %d", n)
	}
	if n := sampleCount(1, 0); n < 2 {
		t.Errorf("sampleCount with zero dt = %d", n)
	}
}
