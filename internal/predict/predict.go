// Package predict provides the trajectory predictors that feed Zhuyi's
// Equation 4 aggregation. The paper leverages existing prediction
// research (MultiPath, PredictionNet); this package substitutes
// kinematic predictors with the same interface — a set T of timed
// trajectories with probabilities per actor:
//
//   - MultiHypothesis: a maneuver-based multi-modal predictor
//     (keep-speed, brake, hard-brake, accelerate, each continuing any
//     lane change) with probability weights, matching the interface of
//     the DNN predictors the paper builds on;
//   - Static: one stationary trajectory, which AppendForAgent uses for
//     static and near-stationary agents.
package predict

import (
	"math"

	"repro/internal/geom"
	"repro/internal/world"
)

// Predictor produces the predicted trajectory set T for an actor,
// starting from its current (perceived) state at time now. It appends
// the trajectories to dst and carves their Points out of buf, so a
// caller that reuses both slices across calls predicts without
// allocating once steady-state capacity is reached. The serving tier's
// pooled /v1/rate path depends on this.
type Predictor interface {
	AppendPrediction(dst []world.Trajectory, buf []world.TrajectoryPoint, a world.Agent, now float64) ([]world.Trajectory, []world.TrajectoryPoint)
}

// sampleCount returns the number of samples for a horizon and step.
func sampleCount(horizon, dt float64) int {
	if dt <= 0 {
		dt = 0.1
	}
	n := int(math.Ceil(horizon/dt)) + 1
	if n < 2 {
		n = 2
	}
	return n
}

// appendAccelProfile integrates a straight-line profile with constant
// longitudinal acceleration, clamping speed at zero and preserving any
// current lateral velocity, into caller-owned storage: the
// trajectory's Points are carved out of buf (capacity-limited so later
// carves cannot alias them) and the trajectory is appended to dst.
func appendAccelProfile(dst []world.Trajectory, buf []world.TrajectoryPoint, a world.Agent, now, horizon, dt, accel, prob float64) ([]world.Trajectory, []world.TrajectoryPoint) {
	n := sampleCount(horizon, dt)
	start := len(buf)
	dir := geom.FromAngle(a.Pose.Heading)
	lat := dir.Perp().Scale(a.LatVel)
	pos := a.Pose.Pos
	speed := a.Speed
	for i := 0; i < n; i++ {
		pt := world.TrajectoryPoint{T: now + float64(i)*dt, Pos: pos, Heading: a.Pose.Heading, Speed: speed, Accel: accel}
		if speed <= 0 && accel <= 0 {
			pt.Accel = 0
		}
		buf = append(buf, pt)
		// Integrate one step.
		v2 := speed + accel*dt
		if v2 < 0 {
			v2 = 0
		}
		pos = pos.Add(dir.Scale((speed + v2) / 2 * dt)).Add(lat.Scale(dt))
		speed = v2
	}
	pts := buf[start:len(buf):len(buf)]
	return append(dst, world.Trajectory{ActorID: a.ID, Prob: prob, Points: pts}), buf
}

// MultiHypothesis emits a probability-weighted maneuver set:
// keep-speed, brake (comfortable), hard-brake, and accelerate, each as a
// straight-line profile from the current state; a lane-change
// continuation is implied by preserving the current lateral velocity.
// Probabilities shift toward braking hypotheses when the actor is
// already decelerating.
type MultiHypothesis struct {
	Horizon float64
	Dt      float64
}

type hypo struct {
	accel float64
	prob  float64
}

// hypotheses returns the fixed maneuver table for the actor's current
// longitudinal regime. A value array, so callers stay allocation-free.
func (p MultiHypothesis) hypotheses(a world.Agent) [4]hypo {
	switch {
	case a.Accel < -0.5: // already braking: likely keeps or deepens braking
		return [4]hypo{
			{a.Accel, 0.45},
			{a.Accel - 2, 0.25},
			{0, 0.20},
			{1.0, 0.10},
		}
	case a.Accel > 0.5: // accelerating
		return [4]hypo{
			{a.Accel, 0.45},
			{0, 0.35},
			{-2.5, 0.15},
			{-6, 0.05},
		}
	default: // cruising
		return [4]hypo{
			{0, 0.55},
			{-2.5, 0.20},
			{1.0, 0.15},
			{-6, 0.10},
		}
	}
}

// AppendPrediction implements Predictor.
func (p MultiHypothesis) AppendPrediction(dst []world.Trajectory, buf []world.TrajectoryPoint, a world.Agent, now float64) ([]world.Trajectory, []world.TrajectoryPoint) {
	hs := p.hypotheses(a)
	for _, h := range hs {
		dst, buf = appendAccelProfile(dst, buf, a, now, p.Horizon, p.Dt, h.accel, h.prob)
	}
	return dst, buf
}

// Static returns a single stationary trajectory for static obstacles.
type Static struct {
	Horizon float64
	Dt      float64
}

// AppendPrediction implements Predictor.
func (p Static) AppendPrediction(dst []world.Trajectory, buf []world.TrajectoryPoint, a world.Agent, now float64) ([]world.Trajectory, []world.TrajectoryPoint) {
	n := sampleCount(p.Horizon, p.Dt)
	start := len(buf)
	for i := 0; i < n; i++ {
		buf = append(buf, world.TrajectoryPoint{T: now + float64(i)*p.Dt, Pos: a.Pose.Pos, Heading: a.Pose.Heading})
	}
	pts := buf[start:len(buf):len(buf)]
	return append(dst, world.Trajectory{ActorID: a.ID, Prob: 1, Points: pts}), buf
}

// AppendForAgent appends a sensible prediction for the agent to dst:
// Static for static or near-stationary agents, the provided predictor
// otherwise.
func AppendForAgent(p Predictor, dst []world.Trajectory, buf []world.TrajectoryPoint, a world.Agent, now, horizon, dt float64) ([]world.Trajectory, []world.TrajectoryPoint) {
	if a.Static || a.Speed < 0.3 {
		return Static{Horizon: horizon, Dt: dt}.AppendPrediction(dst, buf, a, now)
	}
	return p.AppendPrediction(dst, buf, a, now)
}
