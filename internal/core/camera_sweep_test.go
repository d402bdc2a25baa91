package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/predict"
	"repro/internal/sensor"
	"repro/internal/units"
	"repro/internal/world"
)

// The Eq. 5 sweep tests each (camera, actor) pair on the scratch's
// cached sensor.RigCones. referenceSweep is the sweep it replaced: the
// frame-cone pre-filtered Camera.SeesAgent per camera, collecting seen
// IDs, and an ID map in which the last listing of an ID wins. Its
// per-actor inputs come from one-actor estimates, so it shares none of
// the sweep's storage. Do not modernize it; its value is that it does
// not change.
func referenceSweep(e *Estimator, ego world.Agent, actors []world.Agent, pred predict.Predictor, l0 float64) (lat, fpr map[string]float64, threat map[string]bool) {
	latencies := make([]float64, len(actors))
	threats := make([]bool, len(actors))
	index := make(map[string]int, len(actors))
	for ai, a := range actors {
		one := e.EstimateOnline(0, ego, []world.Agent{a}, pred, l0).Actors[0]
		latencies[ai] = one.Latency
		if !one.Feasible {
			latencies[ai] = e.Params.LMin
		}
		threats[ai] = !one.NoThreat
		index[a.ID] = ai
	}
	cams := e.Cameras
	if cams == nil {
		cams = e.Rig.Names()
	}
	lat = make(map[string]float64, len(cams))
	fpr = make(map[string]float64, len(cams))
	threat = make(map[string]bool, len(cams))
	for _, cam := range cams {
		l := e.Params.LMax
		th := false
		var seen []string
		if ci := slices.IndexFunc(e.Rig, func(c sensor.Camera) bool { return c.Name == cam }); ci >= 0 {
			c := e.Rig[ci]
			fc := sensor.NewFrameCone(c, ego.Pose)
			for i := range actors {
				if fc.CannotSee(actors[i]) || !c.SeesAgent(ego.Pose, actors[i]) {
					continue
				}
				seen = append(seen, actors[i].ID)
			}
		}
		for _, id := range seen {
			if ai, ok := index[id]; ok {
				if al := latencies[ai]; al < l {
					l = al
				}
				if threats[ai] {
					th = true
				}
			}
		}
		if l < e.Params.LMin {
			l = e.Params.LMin
		}
		lat[cam] = l
		fpr[cam] = 1 / l
		threat[cam] = th
	}
	return lat, fpr, threat
}

// sweepRigs are the rigs the sweep is checked on: the paper's, one
// with sensor's adversarial cones added (FOV ≥ π, 2°, π−1e-12), and one
// that reuses the default names on other mounts, so a scratch that
// kept its cones across a rig change would answer for the wrong rig.
func sweepRigs() []sensor.Rig {
	adversarial := append(sensor.DefaultRig(),
		sensor.Camera{Name: "wide", MountHeading: 0.3, FOV: math.Pi + 0.4, Range: 120},
		sensor.Camera{Name: "tiny", MountHeading: -0.2, FOV: units.DegToRad(2), Range: 300},
		sensor.Camera{Name: "nearpi", MountHeading: 1.1, FOV: math.Pi - 1e-12, Range: 90},
	)
	turned := sensor.DefaultRig()
	for i := range turned {
		turned[i].MountHeading += math.Pi / 3
		turned[i].FOV /= 2
	}
	return []sensor.Rig{sensor.DefaultRig(), adversarial, turned}
}

// sweepScene is an ego and up to nine actors around it, most within
// camera range and some in its path. IDs repeat (a later listing takes
// an earlier one's ID at another place and speed), and one actor may
// sit exactly at the ego position.
func sweepScene(rng *rand.Rand) (world.Agent, []world.Agent) {
	ego := world.Agent{
		ID:     world.EgoID,
		Pose:   geom.Pose{Pos: geom.V(rng.Float64()*200-100, rng.Float64()*200-100), Heading: rng.Float64()*7 - 3.5},
		Speed:  5 + rng.Float64()*25,
		Accel:  rng.Float64()*4 - 2,
		Length: 4.7, Width: 1.9,
	}
	actors := make([]world.Agent, rng.Intn(10))
	for i := range actors {
		ang := ego.Pose.Heading + (rng.Float64()-0.5)*2*math.Pi
		if rng.Intn(2) == 0 {
			ang = ego.Pose.Heading + (rng.Float64()-0.5)*0.2 // ahead
		}
		heading := ego.Pose.Heading + (rng.Float64()-0.5)*0.4
		if rng.Intn(4) == 0 {
			heading = rng.Float64()*7 - 3.5
		}
		actors[i] = world.Agent{
			ID:     fmt.Sprintf("a%d", i),
			Pose:   geom.Pose{Pos: ego.Pose.Pos.Add(geom.FromAngle(ang).Scale(rng.Float64() * 160)), Heading: heading},
			Speed:  rng.Float64() * 30,
			Accel:  rng.Float64()*6 - 4,
			LatVel: rng.Float64()*2 - 1,
			Length: 3 + rng.Float64()*9,
			Width:  1.5 + rng.Float64()*1.5,
			Static: rng.Intn(6) == 0,
		}
		if i > 0 && rng.Intn(3) == 0 {
			actors[i].ID = actors[rng.Intn(i)].ID
		}
	}
	if len(actors) > 0 && rng.Intn(4) == 0 {
		actors[rng.Intn(len(actors))].Pose.Pos = ego.Pose.Pos
	}
	return ego, actors
}

// sweepCameras picks the cameras to report: nil (every rig camera), or
// a shuffled subset of the rig's names, sometimes with a name the rig
// lacks.
func sweepCameras(rng *rand.Rand, rig sensor.Rig) []string {
	if rng.Intn(4) == 0 {
		return nil
	}
	var cams []string
	for _, i := range rng.Perm(len(rig)) {
		if rng.Intn(3) > 0 {
			cams = append(cams, rig[i].Name)
		}
	}
	if rng.Intn(3) == 0 {
		cams = append(cams, "missing")
	}
	return cams
}

// TestCameraSweepMatchesReference pins the cone sweep to the reference
// on randomized scenes, with one scratch reused across rigs, camera
// lists and a rig edited in place between calls.
func TestCameraSweepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rigs := sweepRigs()
	var pred predict.Predictor = predict.MultiHypothesis{Horizon: DefaultParams().Horizon, Dt: 0.1}
	var sc EstimateScratch
	var dst Estimate
	inPlace := NewEstimator()
	inPlace.Rig = append(sensor.Rig(nil), rigs[1]...)
	for iter := 0; iter < 600; iter++ {
		e := NewEstimator()
		switch iter % 6 {
		case 4, 5:
			// The same estimator twice running, its rig edited in
			// place before each call.
			e = inPlace
			k := rng.Intn(len(e.Rig))
			e.Rig[k].MountHeading = rng.Float64()*7 - 3.5
			e.Rig[k].FOV = rng.Float64() * 2 * math.Pi
		default:
			e.Rig = rigs[rng.Intn(len(rigs))]
		}
		e.Cameras = sweepCameras(rng, e.Rig)
		ego, actors := sweepScene(rng)
		l0 := 1 / 30.0
		e.EstimateOnlineInto(&dst, &sc, 0, ego, actors, pred, l0)
		lat, fpr, threat := referenceSweep(e, ego, actors, pred, l0)
		if !reflect.DeepEqual(dst.CameraLatency, lat) || !reflect.DeepEqual(dst.CameraFPR, fpr) || !reflect.DeepEqual(dst.CameraThreat, threat) {
			t.Fatalf("iter %d: sweep diverged from the reference\nrig %+v\ncameras %v\nego %+v\nactors %+v\n got latency %v threat %v\nwant latency %v threat %v",
				iter, e.Rig, e.Cameras, ego, actors, dst.CameraLatency, dst.CameraThreat, lat, threat)
		}
	}
}

// TestCameraSweepLastListingWins pins the duplicate-ID rule on a scene
// built to separate it: a camera that sees only the first listing of
// an ID binds on the last listing's latency.
func TestCameraSweepLastListingWins(t *testing.T) {
	e := NewEstimator()
	var pred predict.Predictor = predict.MultiHypothesis{Horizon: e.Params.Horizon, Dt: 0.1}
	ego := agent(world.EgoID, 0, 0, 25)
	slow := agent("x", 40, 0, 0)  // ahead, in the ego's path
	side := agent("x", 0, 20, 25) // beside, in the left camera only
	for _, actors := range [][]world.Agent{{side, slow}, {slow, side}} {
		est := e.EstimateOnline(0, ego, actors, pred, 1/30.0)
		lat, _, threat := referenceSweep(e, ego, actors, pred, 1/30.0)
		if !reflect.DeepEqual(est.CameraLatency, lat) || !reflect.DeepEqual(est.CameraThreat, threat) {
			t.Fatalf("%v last: latency %v threat %v, want %v %v", actors[1].Pose.Pos, est.CameraLatency, est.CameraThreat, lat, threat)
		}
	}
	// The left camera sees only "side", so it carries whichever
	// listing came last: the obstacle's demand in the first order.
	est := e.EstimateOnline(0, ego, []world.Agent{side, slow}, pred, 1/30.0)
	if l := est.CameraLatency[sensor.Left]; l >= e.Params.LMax {
		t.Errorf("left latency %v: the left camera should bind on the obstacle, the last listing", l)
	}
}

// TestEstimateOnlineIntoConcurrent runs one Estimator from several
// goroutines, each with its own scratch, and checks every estimate
// against a serial one. Run under -race it also shows that nothing
// the sweep caches lives on the shared Estimator.
func TestEstimateOnlineIntoConcurrent(t *testing.T) {
	e := NewEstimator()
	e.Rig = sweepRigs()[1]
	e.Cameras = nil
	var pred predict.Predictor = predict.MultiHypothesis{Horizon: e.Params.Horizon, Dt: 0.1}
	rng := rand.New(rand.NewSource(9))
	type scene struct {
		ego    world.Agent
		actors []world.Agent
		want   Estimate
	}
	scenes := make([]scene, 40)
	for i := range scenes {
		ego, actors := sweepScene(rng)
		scenes[i] = scene{ego: ego, actors: actors, want: e.EstimateOnline(0, ego, actors, pred, 1/30.0)}
	}
	const workers = 4
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc EstimateScratch
			var dst Estimate
			for rep := range 5 {
				for i := range scenes {
					s := &scenes[(i+w*7)%len(scenes)]
					e.EstimateOnlineInto(&dst, &sc, 0, s.ego, s.actors, pred, 1/30.0)
					if !reflect.DeepEqual(dst.CameraLatency, s.want.CameraLatency) || !reflect.DeepEqual(dst.CameraThreat, s.want.CameraThreat) {
						errs <- fmt.Errorf("worker %d rep %d scene %d: %v, serial %v", w, rep, i, dst.CameraLatency, s.want.CameraLatency)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
