package zhuyi_test

import (
	"fmt"

	zhuyi "repro"
)

// ExampleTolerableLatency shows the core per-actor computation: the
// maximum perception latency tolerable against a static obstacle.
func ExampleNewEstimator() {
	est := zhuyi.NewEstimator()

	ego := zhuyi.Agent{
		ID:     zhuyi.EgoID,
		Pose:   zhuyi.Pose{Pos: zhuyi.Vec2{X: 0, Y: 0}},
		Speed:  20, // m/s
		Length: 4.6, Width: 1.9,
	}
	obstacle := zhuyi.Agent{
		ID:     "obstacle",
		Pose:   zhuyi.Pose{Pos: zhuyi.Vec2{X: 120, Y: 0}},
		Length: 4, Width: 1.9,
		Static: true,
	}
	// Ground-truth future: the obstacle stays put.
	traj := zhuyi.Trajectory{ActorID: "obstacle", Prob: 1, Points: []zhuyi.TrajectoryPoint{
		{T: 0, Pos: obstacle.Pose.Pos},
		{T: est.Params.Horizon, Pos: obstacle.Pose.Pos},
	}}

	e := est.EstimateSnapshot(0, ego, []zhuyi.Agent{obstacle},
		map[string][]zhuyi.Trajectory{"obstacle": {traj}}, 1.0/30)

	fmt.Printf("front latency budget: %.0f ms\n", e.CameraLatency[zhuyi.CameraFront120]*1000)
	fmt.Printf("front minimum FPR: %.1f\n", e.CameraFPR[zhuyi.CameraFront120])
	fmt.Printf("side cameras idle: %v\n", e.CameraFPR[zhuyi.CameraLeft] == 1 && e.CameraFPR[zhuyi.CameraRight] == 1)
	// Output:
	// front latency budget: 538 ms
	// front minimum FPR: 1.9
	// side cameras idle: true
}

// ExampleCheckSafety demonstrates the §3.2 online safety check.
func ExampleCheckSafety() {
	est := zhuyi.Estimate{
		CameraFPR: map[string]float64{
			zhuyi.CameraFront120: 8,
			zhuyi.CameraLeft:     1,
		},
	}
	operating := map[string]float64{
		zhuyi.CameraFront120: 5, // below the requirement
		zhuyi.CameraLeft:     2,
	}
	res := zhuyi.CheckSafety(est, operating)
	fmt.Println("ok:", res.OK)
	fmt.Println("action:", res.Action)
	fmt.Println("alarmed camera:", res.Alarms[0].Camera)
	// Output:
	// ok: false
	// action: limited-functionality
	// alarmed camera: front120
}

// ExampleUncertainty shows the perception-uncertainty extension: a
// noisier perception model tightens the estimated requirement.
func ExampleUncertainty() {
	exact := zhuyi.NewEstimator()
	noisy := zhuyi.NewEstimator()
	noisy.Params = zhuyi.Uncertainty{PosSigma: 2, SpeedSigma: 1}.Apply(exact.Params)

	ego := zhuyi.Agent{ID: zhuyi.EgoID, Pose: zhuyi.Pose{Pos: zhuyi.Vec2{X: 0, Y: 0}}, Speed: 25, Length: 4.6, Width: 1.9}
	obstacle := zhuyi.Agent{ID: "obs", Pose: zhuyi.Pose{Pos: zhuyi.Vec2{X: 95, Y: 0}}, Length: 4, Width: 1.9, Static: true}
	futures := map[string][]zhuyi.Trajectory{"obs": {{ActorID: "obs", Prob: 1, Points: []zhuyi.TrajectoryPoint{
		{T: 0, Pos: obstacle.Pose.Pos},
		{T: exact.Params.Horizon, Pos: obstacle.Pose.Pos},
	}}}}

	a := exact.EstimateSnapshot(0, ego, []zhuyi.Agent{obstacle}, futures, 1.0/30)
	b := noisy.EstimateSnapshot(0, ego, []zhuyi.Agent{obstacle}, futures, 1.0/30)
	fmt.Println("noisy model demands a higher rate:", b.CameraFPR[zhuyi.CameraFront120] > a.CameraFPR[zhuyi.CameraFront120])
	// Output:
	// noisy model demands a higher rate: true
}
