// Quickstart: estimate the tolerable perception latency and per-camera
// frame processing rates for a hand-built driving snapshot — a braking
// lead vehicle ahead of the ego and a harmless neighbor one lane over.
package main

import (
	"fmt"

	zhuyi "repro"
)

func main() {
	// The ego: 27 m/s (~60 mph) in the middle lane, cruising.
	ego := zhuyi.Agent{
		ID:     zhuyi.EgoID,
		Pose:   zhuyi.Pose{Pos: zhuyi.Vec2{X: 0, Y: 0}, Heading: 0},
		Speed:  27,
		Length: 4.6,
		Width:  1.9,
	}

	// A lead vehicle 45 m ahead, braking at 4 m/s², and a neighbor in
	// the adjacent lane pacing the ego.
	lead := zhuyi.Agent{
		ID:     "lead",
		Pose:   zhuyi.Pose{Pos: zhuyi.Vec2{X: 45, Y: 0}, Heading: 0},
		Speed:  24,
		Accel:  -4,
		Length: 4.6,
		Width:  1.9,
	}
	neighbor := zhuyi.Agent{
		ID:     "neighbor",
		Pose:   zhuyi.Pose{Pos: zhuyi.Vec2{X: 5, Y: 3.5}, Heading: 0},
		Speed:  27,
		Length: 4.6,
		Width:  1.9,
	}

	est := zhuyi.NewEstimator()

	// Post-deployment style: futures come from a trajectory predictor.
	pred := zhuyi.MultiHypothesis{Horizon: est.Params.Horizon, Dt: 0.1}
	e := est.EstimateOnline(0, ego, []zhuyi.Agent{lead, neighbor}, pred, 1.0/30)

	fmt.Println("Per-actor tolerable latency:")
	for _, a := range e.Actors {
		switch {
		case !a.Feasible:
			fmt.Printf("  %-10s collision unavoidable\n", a.ActorID)
		case a.NoThreat:
			fmt.Printf("  %-10s no conflict (%.0f ms, idle)\n", a.ActorID, a.Latency*1000)
		default:
			fmt.Printf("  %-10s %.0f ms (over %d predicted trajectories)\n",
				a.ActorID, a.Latency*1000, a.TrajCount)
		}
	}

	fmt.Println("\nPer-camera minimum safe FPR (Eq. 5):")
	for _, cam := range est.Cameras {
		fmt.Printf("  %-10s %5.1f FPR (latency budget %.0f ms)\n",
			cam, e.CameraFPR[cam], e.CameraLatency[cam]*1000)
	}

	d := zhuyi.NewDemand(2, 4, est.Params)
	fmt.Printf("\nZhuyi compute demand for this scene: %d ops (%.1f µs on 10 GOPS)\n",
		d.Ops(), d.ExecutionSeconds(10e9)*1e6)
}
