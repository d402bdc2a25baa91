package core

import (
	"slices"
	"strings"

	"repro/internal/predict"
	"repro/internal/sensor"
	"repro/internal/world"
)

// EstimateScratch holds every piece of transient storage one Zhuyi
// evaluation needs: predicted trajectories and their sample points,
// per-trajectory latency results, per-actor latencies/threat flags,
// the camera cones and the percentile-sort scratch.
// Reusing one scratch across calls makes EstimateOnlineInto free of
// heap allocation once steady-state capacity is reached — the
// serving tier keeps one per pooled request context. The zero value is
// ready to use. A scratch must not be used concurrently.
type EstimateScratch struct {
	trajs     []world.Trajectory
	points    []world.TrajectoryPoint
	actorTraj [][2]int // per-actor [start, end) range into trajs
	results   []LatencyResult
	probs     []float64
	latencies []float64 // per actor, indexed like the wm slice
	threats   []bool
	order     []int // actor indices sorted by ID, when IDs repeat
	agg       []aggEntry

	// The camera sweep's cones, built for rig (a private copy, so a
	// caller editing its Estimator's rig in place cannot leave them
	// stale), and the rig index of each reported camera in names (-1
	// for a name the rig lacks); allCams marks names resolved for a
	// nil Estimator.Cameras.
	cones   *sensor.RigCones
	rig     sensor.Rig
	names   []string
	camIdx  []int
	allCams bool
}

// EstimateOnlineInto is EstimateOnline writing into dst using sc for
// every intermediate: predictions come from predict.AppendForAgent and
// dst's maps and slices are cleared and refilled in place. dst must
// not alias live data the caller still needs; its previous contents
// are overwritten. The result is numerically identical to
// EstimateOnline on the same inputs.
func (e *Estimator) EstimateOnlineInto(dst *Estimate, sc *EstimateScratch, now float64, ego world.Agent, wm []world.Agent, pred predict.Predictor, l0 float64) {
	sc.trajs = sc.trajs[:0]
	sc.points = sc.points[:0]
	sc.actorTraj = sc.actorTraj[:0]
	for _, a := range wm {
		start := len(sc.trajs)
		sc.trajs, sc.points = predict.AppendForAgent(pred, sc.trajs, sc.points, a, now, e.Params.Horizon, 0.1)
		sc.actorTraj = append(sc.actorTraj, [2]int{start, len(sc.trajs)})
	}
	e.estimateInto(dst, sc, now, ego, wm, l0)
}

// estimateInto is the single implementation behind EstimateSnapshot
// and EstimateOnlineInto: the per-actor latency aggregation and the
// Eq. 5 camera sweep, with sc.trajs/sc.actorTraj already populated.
func (e *Estimator) estimateInto(dst *Estimate, sc *EstimateScratch, now float64, ego world.Agent, actors []world.Agent, l0 float64) {
	cams, camIdx := sc.sweepFor(e)
	dst.Time = now
	dst.Evals = 0
	dst.Actors = dst.Actors[:0]
	if dst.CameraLatency == nil {
		dst.CameraLatency = make(map[string]float64, len(cams))
		dst.CameraFPR = make(map[string]float64, len(cams))
		dst.CameraThreat = make(map[string]bool, len(cams))
	} else {
		clear(dst.CameraLatency)
		clear(dst.CameraFPR)
		clear(dst.CameraThreat)
	}
	egoState := EgoFromAgent(ego)

	sc.latencies = sc.latencies[:0]
	sc.threats = sc.threats[:0]
	for ai, a := range actors {
		set := sc.trajs[sc.actorTraj[ai][0]:sc.actorTraj[ai][1]]
		sc.results = sc.results[:0]
		sc.probs = sc.probs[:0]
		for _, tr := range set {
			sc.results = append(sc.results, TolerableLatency(egoState, tr, [2]float64{a.Length, a.Width}, l0, e.Params))
			sc.probs = append(sc.probs, tr.Prob)
		}
		agg := Aggregate(sc.results, sc.probs, e.Agg, &sc.agg)
		ae := ActorEstimate{
			ActorID:   a.ID,
			Latency:   agg.Latency,
			Feasible:  agg.Feasible,
			NoThreat:  agg.NoThreat,
			Evals:     agg.Evals,
			TrajCount: len(set),
		}
		if !agg.Feasible {
			ae.Latency = 0
		}
		dst.Actors = append(dst.Actors, ae)
		dst.Evals += agg.Evals
		lat := ae.Latency
		if !agg.Feasible {
			lat = e.Params.LMin // demand the maximum representable rate
		}
		sc.latencies = append(sc.latencies, lat)
		sc.threats = append(sc.threats, !agg.NoThreat)
	}
	slices.SortFunc(dst.Actors, func(a, b ActorEstimate) int { return strings.Compare(a.ActorID, b.ActorID) })
	for k := 1; k < len(dst.Actors); k++ {
		if dst.Actors[k].ActorID == dst.Actors[k-1].ActorID {
			sc.shareLastOccurrence(actors)
			break
		}
	}

	// Eq. 5: per camera, the binding actor is the one with the smallest
	// tolerable latency among those in the camera's FOV, tested on the
	// scratch's cones rotated to the ego pose once per instant.
	sc.cones.Update(ego.Pose)
	for k, cam := range cams {
		l := e.Params.LMax // empty FOV: idle floor (FPR 1)
		threat := false
		if ci := camIdx[k]; ci >= 0 {
			for ai := range actors {
				if !sc.cones.SeesAgentAt(ci, &actors[ai]) {
					continue
				}
				if al := sc.latencies[ai]; al < l {
					l = al
				}
				if sc.threats[ai] {
					threat = true
				}
			}
		}
		if l < e.Params.LMin {
			l = e.Params.LMin
		}
		dst.CameraLatency[cam] = l
		dst.CameraFPR[cam] = 1 / l
		dst.CameraThreat[cam] = threat
	}
}

// shareLastOccurrence gives every actor the latency and threat of the
// last actor listing the same ID, the one an ID-keyed view of the scene
// keeps: a camera that sees any listing of an ID binds on that one.
func (sc *EstimateScratch) shareLastOccurrence(actors []world.Agent) {
	sc.order = sc.order[:0]
	for ai := range actors {
		sc.order = append(sc.order, ai)
	}
	slices.SortStableFunc(sc.order, func(i, j int) int { return strings.Compare(actors[i].ID, actors[j].ID) })
	for lo := 0; lo < len(sc.order); {
		hi := lo + 1
		for hi < len(sc.order) && actors[sc.order[hi]].ID == actors[sc.order[lo]].ID {
			hi++
		}
		last := sc.order[hi-1]
		for _, ai := range sc.order[lo : hi-1] {
			sc.latencies[ai], sc.threats[ai] = sc.latencies[last], sc.threats[last]
		}
		lo = hi
	}
}

// sweepFor returns the cameras e reports and each one's rig index,
// rebuilding the scratch's cones only when e's rig differs from the
// one they were built for, and the index table only then or when e's
// camera list changes. A name the rig lacks gets -1; a name the rig
// lists twice gets the first camera of that name.
func (sc *EstimateScratch) sweepFor(e *Estimator) ([]string, []int) {
	if sc.cones == nil || !slices.Equal(sc.rig, e.Rig) {
		sc.rig = append(sc.rig[:0], e.Rig...)
		sc.cones = sensor.NewRigCones(sc.rig)
	} else if sc.allCams == (e.Cameras == nil) && (sc.allCams || slices.Equal(sc.names, e.Cameras)) {
		return sc.names, sc.camIdx
	}
	sc.allCams = e.Cameras == nil
	sc.names = append(sc.names[:0], e.Cameras...)
	if sc.allCams {
		for _, c := range sc.rig {
			sc.names = append(sc.names, c.Name)
		}
	}
	sc.camIdx = sc.camIdx[:0]
	for _, name := range sc.names {
		sc.camIdx = append(sc.camIdx, slices.IndexFunc(sc.rig, func(c sensor.Camera) bool { return c.Name == name }))
	}
	return sc.names, sc.camIdx
}
