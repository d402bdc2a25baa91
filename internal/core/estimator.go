package core

import (
	"repro/internal/predict"
	"repro/internal/sensor"
	"repro/internal/world"
)

// ActorEstimate is the per-actor output of one Zhuyi evaluation.
type ActorEstimate struct {
	ActorID   string
	Latency   float64 // aggregated tolerable latency, s
	Feasible  bool
	NoThreat  bool
	Evals     int
	TrajCount int
}

// Estimate is the full Zhuyi output for one instant: per-actor
// latencies and the per-camera requirement (Eq. 5).
type Estimate struct {
	Time          float64
	Actors        []ActorEstimate
	CameraLatency map[string]float64 // l_sensor = min over actors in FOV
	CameraFPR     map[string]float64 // 1 / l_sensor
	CameraThreat  map[string]bool    // any in-FOV actor with a conflicting trajectory
	Evals         int                // total constraint evaluations
}

// SumFPR returns the summed FPR requirement over the given cameras (the
// Table-1 F_c1+F_c2+F_c3 quantity).
func (e Estimate) SumFPR(cameras []string) float64 {
	sum := 0.0
	for _, c := range cameras {
		sum += e.CameraFPR[c]
	}
	return sum
}

// MaxFPR returns the largest per-camera requirement over the given
// cameras.
func (e Estimate) MaxFPR(cameras []string) float64 {
	maxFPR := 0.0
	for _, c := range cameras {
		if e.CameraFPR[c] > maxFPR {
			maxFPR = e.CameraFPR[c]
		}
	}
	return maxFPR
}

// Estimator orchestrates the Zhuyi model over world snapshots.
type Estimator struct {
	Params  Params
	Rig     sensor.Rig
	Agg     AggregateOptions
	Cameras []string // cameras to report; nil = all rig cameras
}

// NewEstimator builds an estimator with the paper's defaults (ground
// truth aggregation is trivial with |T| = 1; the percentile mode only
// matters online).
func NewEstimator() *Estimator {
	return &Estimator{
		Params:  DefaultParams(),
		Rig:     sensor.DefaultRig(),
		Agg:     AggregateOptions{Mode: AggPercentile, Percentile: 99},
		Cameras: sensor.AnalyzedCameras(),
	}
}

func (e *Estimator) cameras() []string {
	if e.Cameras != nil {
		return e.Cameras
	}
	return e.Rig.Names()
}

// EstimateSnapshot runs the Zhuyi model at one instant. ego and actors
// describe the scene (ground truth offline, the perceived world model
// online); trajs supplies the trajectory set T per actor ID; l0 is the
// current per-camera processing latency.
func (e *Estimator) EstimateSnapshot(now float64, ego world.Agent, actors []world.Agent, trajs map[string][]world.Trajectory, l0 float64) Estimate {
	var sc EstimateScratch
	for _, a := range actors {
		start := len(sc.trajs)
		sc.trajs = append(sc.trajs, trajs[a.ID]...)
		sc.actorTraj = append(sc.actorTraj, [2]int{start, len(sc.trajs)})
	}
	var est Estimate
	e.estimateInto(&est, &sc, now, ego, actors, l0)
	return est
}

// EstimateOnline runs the Zhuyi model post-deployment: the scene is the
// perceived world model and futures come from the trajectory predictor
// (§3.2, Figure 3).
func (e *Estimator) EstimateOnline(now float64, ego world.Agent, wm []world.Agent, pred predict.Predictor, l0 float64) Estimate {
	var sc EstimateScratch
	var est Estimate
	e.EstimateOnlineInto(&est, &sc, now, ego, wm, pred, l0)
	return est
}
