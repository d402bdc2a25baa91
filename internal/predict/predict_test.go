package predict

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/road"
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

func TestConstantVelocity(t *testing.T) {
	p := ConstantVelocity{Horizon: 5, Dt: 0.1}
	trs := p.Predict(movingAgent(10, 0), 2)
	if len(trs) != 1 || trs[0].Prob != 1 {
		t.Fatalf("trajectories = %d", len(trs))
	}
	tr := trs[0]
	if tr.Start() != 2 {
		t.Errorf("start = %v", tr.Start())
	}
	at := tr.At(4) // 2 s in
	if math.Abs(at.Pos.X-70) > 1e-9 {
		t.Errorf("pos at t=4: %v", at.Pos)
	}
	if at.Speed != 10 {
		t.Errorf("speed = %v", at.Speed)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestConstantAccelBrakesToStop(t *testing.T) {
	p := ConstantAccel{Horizon: 8, Dt: 0.05}
	trs := p.Predict(movingAgent(10, -5), 0)
	tr := trs[0]
	// Stops after 2 s, having traveled 10 m; stays stopped.
	at := tr.At(2.0)
	if math.Abs(at.Speed) > 0.26 {
		t.Errorf("speed at stop time = %v", at.Speed)
	}
	end := tr.At(8)
	if math.Abs(end.Pos.X-60) > 0.3 {
		t.Errorf("final pos = %v, want ~60", end.Pos.X)
	}
	if end.Speed != 0 {
		t.Errorf("final speed = %v", end.Speed)
	}
}

func TestConstantAccelSpeedNeverNegative(t *testing.T) {
	p := ConstantAccel{Horizon: 10, Dt: 0.1}
	trs := p.Predict(movingAgent(5, -8), 0)
	for _, pt := range trs[0].Points {
		if pt.Speed < 0 {
			t.Fatalf("negative speed %v at t=%v", pt.Speed, pt.T)
		}
	}
}

func TestLaneFollowStraightRoad(t *testing.T) {
	r := road.NewStraight(3, 2000)
	p := LaneFollow{Road: r, Horizon: 5, Dt: 0.1}
	a := movingAgent(20, 0)
	a.Pose.Pos = geom.V(100, 3.5) // centered in lane 1
	trs := p.Predict(a, 0)
	tr := trs[0]
	at := tr.At(3)
	if math.Abs(at.Pos.X-160) > 1e-6 || math.Abs(at.Pos.Y-3.5) > 1e-6 {
		t.Errorf("pos at t=3: %v", at.Pos)
	}
}

func TestLaneFollowRelaxesToLaneCenter(t *testing.T) {
	r := road.NewStraight(3, 2000)
	p := LaneFollow{Road: r, Horizon: 8, Dt: 0.05, Tau: 1.0}
	a := movingAgent(20, 0)
	a.Pose.Pos = geom.V(100, 2.8) // offset within lane 1's bucket
	trs := p.Predict(a, 0)
	end := trs[0].Points[len(trs[0].Points)-1]
	if math.Abs(end.Pos.Y-3.5) > 0.3 {
		t.Errorf("final lateral = %v, want ~3.5", end.Pos.Y)
	}
}

func TestLaneFollowCurvedRoad(t *testing.T) {
	r := road.NewCurved(3, 0, 200, 600)
	p := LaneFollow{Road: r, Horizon: 5, Dt: 0.1}
	a := movingAgent(20, 0)
	a.Pose.Pos = r.PoseAt(0, 50).Pos
	trs := p.Predict(a, 0)
	// The predicted path must stay on the lane: its offset from lane 0
	// center stays small even as the road curves.
	for _, pt := range trs[0].Points {
		_, d := r.Frenet(pt.Pos)
		if math.Abs(d) > 0.5 {
			t.Fatalf("predicted point strays %v m off lane center", d)
		}
	}
}

func TestMultiHypothesisProbabilitiesSumToOne(t *testing.T) {
	p := MultiHypothesis{Horizon: 6, Dt: 0.1}
	for _, accel := range []float64{0, -3, 2} {
		trs := p.Predict(movingAgent(15, accel), 0)
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
	braking := p.Predict(movingAgent(15, -3), 0)
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
	trs := Static{Horizon: 5, Dt: 0.5}.Predict(obs, 1)
	tr := trs[0]
	if tr.At(3).Pos != obs.Pose.Pos {
		t.Errorf("static obstacle moved: %v", tr.At(3).Pos)
	}
	if tr.At(3).Speed != 0 {
		t.Errorf("static obstacle speed: %v", tr.At(3).Speed)
	}
}

func TestForAgentDispatch(t *testing.T) {
	cv := ConstantVelocity{Horizon: 5, Dt: 0.1}
	obs := world.Agent{ID: "obs", Pose: geom.Pose{Pos: geom.V(80, 0)}, Length: 4, Width: 2, Static: true}
	trs, _ := AppendForAgent(cv, nil, nil, obs, 0, 5, 0.1)
	if trs[0].At(5).Pos != obs.Pose.Pos {
		t.Error("static agent not dispatched to Static predictor")
	}
	mover := movingAgent(10, 0)
	trs, _ = AppendForAgent(cv, nil, nil, mover, 0, 5, 0.1)
	if math.Abs(trs[0].At(5).Pos.X-100) > 1e-9 {
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
