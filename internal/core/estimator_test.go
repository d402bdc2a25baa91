package core

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/predict"
	"repro/internal/sensor"
	"repro/internal/world"
)

func agent(id string, x, y, speed float64) world.Agent {
	return world.Agent{
		ID:     id,
		Pose:   geom.Pose{Pos: geom.V(x, y), Heading: 0},
		Speed:  speed,
		Length: 4.6,
		Width:  1.9,
	}
}

func TestEstimateSnapshotCameraAssignment(t *testing.T) {
	e := NewEstimator()
	ego := agent(world.EgoID, 0, 0, 25)
	// A threatening static obstacle ahead and a harmless parallel actor
	// to the left.
	obstacle := agent("obs", 90, 0, 0)
	obstacle.Static = true
	side := agent("side", 2, 3.5, 25)
	actors := []world.Agent{obstacle, side}

	trajs := map[string][]world.Trajectory{
		"obs":  {staticTraj(90, 0, e.Params.Horizon)},
		"side": {straightTraj(2, 3.5, 25, 0, e.Params.Horizon)},
	}
	est := e.EstimateSnapshot(0, ego, actors, trajs, 1.0/30)

	// The front camera carries the obstacle's requirement; the side
	// cameras see only the harmless actor (left) or nothing (right) and
	// sit at the idle floor of 1 FPR.
	if est.CameraFPR[sensor.Front120] <= 1 {
		t.Errorf("front FPR = %v, want > 1", est.CameraFPR[sensor.Front120])
	}
	if est.CameraFPR[sensor.Left] != 1 {
		t.Errorf("left FPR = %v, want 1", est.CameraFPR[sensor.Left])
	}
	if est.CameraFPR[sensor.Right] != 1 {
		t.Errorf("right FPR = %v, want 1", est.CameraFPR[sensor.Right])
	}
	if est.CameraLatency[sensor.Left] != e.Params.LMax {
		t.Errorf("left latency = %v, want LMax", est.CameraLatency[sensor.Left])
	}
	if est.Evals == 0 {
		t.Error("no evals recorded")
	}
}

func TestEstimateSnapshotEmptyScene(t *testing.T) {
	e := NewEstimator()
	ego := agent(world.EgoID, 0, 0, 25)
	est := e.EstimateSnapshot(0, ego, nil, nil, 1.0/30)
	for _, cam := range sensor.AnalyzedCameras() {
		if est.CameraFPR[cam] != 1 {
			t.Errorf("camera %s FPR = %v, want 1 (idle)", cam, est.CameraFPR[cam])
		}
	}
	if est.SumFPR(sensor.AnalyzedCameras()) != 3 {
		t.Errorf("sum = %v, want 3", est.SumFPR(sensor.AnalyzedCameras()))
	}
}

func TestEstimateInfeasibleActorSaturatesCamera(t *testing.T) {
	e := NewEstimator()
	ego := agent(world.EgoID, 0, 0, 35)
	wall := agent("wall", 18, 0, 0)
	wall.Static = true
	trajs := map[string][]world.Trajectory{"wall": {staticTraj(18, 0, e.Params.Horizon)}}
	est := e.EstimateSnapshot(0, ego, []world.Agent{wall}, trajs, 1.0/30)
	// Unavoidable collision: the camera demand saturates at 1/LMin.
	want := 1 / e.Params.LMin
	if math.Abs(est.CameraFPR[sensor.Front120]-want) > 1e-6 {
		t.Errorf("front FPR = %v, want %v", est.CameraFPR[sensor.Front120], want)
	}
	if len(est.Actors) != 1 || est.Actors[0].Feasible {
		t.Errorf("actors = %+v", est.Actors)
	}
}

func TestEstimateMaxAndSum(t *testing.T) {
	e := NewEstimator()
	ego := agent(world.EgoID, 0, 0, 25)
	obstacle := agent("obs", 100, 0, 0)
	obstacle.Static = true
	trajs := map[string][]world.Trajectory{"obs": {staticTraj(100, 0, e.Params.Horizon)}}
	est := e.EstimateSnapshot(0, ego, []world.Agent{obstacle}, trajs, 1.0/30)
	cams := sensor.AnalyzedCameras()
	front := est.CameraFPR[sensor.Front120]
	if got := est.MaxFPR(cams); got != front {
		t.Errorf("MaxFPR = %v, want %v", got, front)
	}
	if got := est.SumFPR(cams); math.Abs(got-(front+2)) > 1e-9 {
		t.Errorf("SumFPR = %v, want %v", got, front+2)
	}
}

func TestEstimateOnlineUsesPredictor(t *testing.T) {
	e := NewEstimator()
	ego := agent(world.EgoID, 0, 0, 30)
	lead := agent("lead", 45, 0, 30)
	lead.Accel = -5 // perceived as braking
	pred := predict.MultiHypothesis{Horizon: e.Params.Horizon, Dt: 0.1}
	est := e.EstimateOnline(0, ego, []world.Agent{lead}, pred, 1.0/30)
	if len(est.Actors) != 1 {
		t.Fatalf("actors = %d", len(est.Actors))
	}
	if est.Actors[0].TrajCount < 2 {
		t.Errorf("trajectory count = %d, want multi-hypothesis", est.Actors[0].TrajCount)
	}
	// A braking lead 45 m ahead at 30 m/s demands a real rate.
	if est.CameraFPR[sensor.Front120] <= 1 {
		t.Errorf("front FPR = %v, want > 1", est.CameraFPR[sensor.Front120])
	}
}

func TestEstimatorCustomCameraSubset(t *testing.T) {
	e := NewEstimator()
	e.Cameras = []string{sensor.Front120}
	ego := agent(world.EgoID, 0, 0, 25)
	est := e.EstimateSnapshot(0, ego, nil, nil, 1.0/30)
	if len(est.CameraFPR) != 1 {
		t.Errorf("cameras reported = %d", len(est.CameraFPR))
	}
	e.Cameras = nil
	est = e.EstimateSnapshot(0, ego, nil, nil, 1.0/30)
	if len(est.CameraFPR) != len(e.Rig) {
		t.Errorf("nil subset: cameras reported = %d, want %d", len(est.CameraFPR), len(e.Rig))
	}
}

// TestEstimateOnlineNonFiniteTime: a NaN or infinite time stamps every
// predicted point, so it reaches the trajectory sampler's segment
// search. The estimate must still come back with the actor in it, not
// index out of range.
func TestEstimateOnlineNonFiniteTime(t *testing.T) {
	e := NewEstimator()
	ego := agent(world.EgoID, 0, 0, 25)
	lead := agent("lead", 40, 0, 15)
	pred := predict.MultiHypothesis{Horizon: e.Params.Horizon, Dt: 0.1}
	for _, now := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		est := e.EstimateOnline(now, ego, []world.Agent{lead}, pred, 1.0/30)
		if len(est.Actors) != 1 || est.Actors[0].ActorID != "lead" {
			t.Errorf("now=%v: actors %+v, want the lead", now, est.Actors)
		}
	}
}
