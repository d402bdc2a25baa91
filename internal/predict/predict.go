// Package predict provides the trajectory predictors that feed Zhuyi's
// Equation 4 aggregation. The paper leverages existing prediction
// research (MultiPath, PredictionNet); this package substitutes
// kinematic predictors with the same interface — a set T of timed
// trajectories with probabilities per actor:
//
//   - ConstantVelocity and ConstantAccel: single-hypothesis baselines;
//   - LaneFollow: follows the lane tangent while damping any lateral
//     motion back to the lane center;
//   - MultiHypothesis: a maneuver-based multi-modal predictor
//     (keep-speed, brake, accelerate, continue-lane-change) with
//     probability weights, matching the interface of the DNN predictors
//     the paper builds on.
package predict

import (
	"math"

	"repro/internal/geom"
	"repro/internal/road"
	"repro/internal/world"
)

// Predictor produces the predicted trajectory set T for an actor,
// starting from its current (perceived) state at time now.
type Predictor interface {
	Predict(a world.Agent, now float64) []world.Trajectory
}

// AppendPredictor is implemented by predictors that can emit their
// trajectory set into caller-owned storage: trajectories are appended
// to dst and their Points are carved out of buf, so a caller that
// reuses both slices across calls predicts without allocating once
// steady-state capacity is reached. The serving tier's pooled /v1/rate
// path depends on this.
type AppendPredictor interface {
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

// ConstantVelocity extrapolates the current velocity vector.
type ConstantVelocity struct {
	Horizon float64 // s
	Dt      float64 // s
}

// Predict implements Predictor.
func (p ConstantVelocity) Predict(a world.Agent, now float64) []world.Trajectory {
	n := sampleCount(p.Horizon, p.Dt)
	pts := make([]world.TrajectoryPoint, n)
	vel := a.Velocity()
	for i := 0; i < n; i++ {
		t := float64(i) * p.Dt
		pts[i] = world.TrajectoryPoint{
			T:       now + t,
			Pos:     a.Pose.Pos.Add(vel.Scale(t)),
			Heading: a.Pose.Heading,
			Speed:   a.Speed,
			Accel:   0,
		}
	}
	return []world.Trajectory{{ActorID: a.ID, Prob: 1, Points: pts}}
}

// ConstantAccel extrapolates with the current longitudinal acceleration,
// clamping speed at zero (braking actors stop and stay stopped).
type ConstantAccel struct {
	Horizon float64
	Dt      float64
}

// Predict implements Predictor.
func (p ConstantAccel) Predict(a world.Agent, now float64) []world.Trajectory {
	return []world.Trajectory{accelProfile(a, now, p.Horizon, p.Dt, a.Accel, 1)}
}

// AppendPrediction implements AppendPredictor.
func (p ConstantAccel) AppendPrediction(dst []world.Trajectory, buf []world.TrajectoryPoint, a world.Agent, now float64) ([]world.Trajectory, []world.TrajectoryPoint) {
	return appendAccelProfile(dst, buf, a, now, p.Horizon, p.Dt, a.Accel, 1)
}

// accelProfile integrates a straight-line profile with constant
// longitudinal acceleration, preserving any current lateral velocity.
func accelProfile(a world.Agent, now, horizon, dt, accel, prob float64) world.Trajectory {
	dst, _ := appendAccelProfile(nil, nil, a, now, horizon, dt, accel, prob)
	return dst[0]
}

// appendAccelProfile is accelProfile into caller-owned storage: the
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

// LaneFollow predicts motion along the road: the actor keeps its speed
// along the lane tangent while its lateral offset relaxes to the nearest
// lane center with time constant Tau.
type LaneFollow struct {
	Road    *road.Road
	Horizon float64
	Dt      float64
	Tau     float64 // lateral relaxation time constant, s (default 1.5)
}

// Predict implements Predictor.
func (p LaneFollow) Predict(a world.Agent, now float64) []world.Trajectory {
	tau := p.Tau
	if tau <= 0 {
		tau = 1.5
	}
	n := sampleCount(p.Horizon, p.Dt)
	pts := make([]world.TrajectoryPoint, n)
	s, d := p.Road.Frenet(a.Pose.Pos)
	targetD := p.Road.LaneCenterOffset(p.Road.LaneAt(d + a.LatVel*tau))
	latV := a.LatVel
	for i := 0; i < n; i++ {
		pose := p.Road.PoseAtOffset(s, d)
		pts[i] = world.TrajectoryPoint{T: now + float64(i)*p.Dt, Pos: pose.Pos, Heading: pose.Heading, Speed: a.Speed, Accel: 0}
		s += a.Speed * p.Dt
		// First-order relaxation of the offset toward the target lane.
		d += latV * p.Dt
		latV += ((targetD-d)/tau - latV) / tau * p.Dt
	}
	return []world.Trajectory{{ActorID: a.ID, Prob: 1, Points: pts}}
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

// Predict implements Predictor.
func (p MultiHypothesis) Predict(a world.Agent, now float64) []world.Trajectory {
	hs := p.hypotheses(a)
	out := make([]world.Trajectory, 0, len(hs))
	for _, h := range hs {
		out = append(out, accelProfile(a, now, p.Horizon, p.Dt, h.accel, h.prob))
	}
	return out
}

// AppendPrediction implements AppendPredictor.
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

// Predict implements Predictor.
func (p Static) Predict(a world.Agent, now float64) []world.Trajectory {
	dst, _ := p.AppendPrediction(nil, nil, a, now)
	return dst
}

// AppendPrediction implements AppendPredictor.
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
// otherwise. Predictors that implement AppendPredictor emit without allocating (buf and dst
// grow amortized); others fall back to Predict and copy, preserving
// semantics at the old allocation cost.
func AppendForAgent(p Predictor, dst []world.Trajectory, buf []world.TrajectoryPoint, a world.Agent, now, horizon, dt float64) ([]world.Trajectory, []world.TrajectoryPoint) {
	if a.Static || a.Speed < 0.3 {
		return Static{Horizon: horizon, Dt: dt}.AppendPrediction(dst, buf, a, now)
	}
	if ap, ok := p.(AppendPredictor); ok {
		return ap.AppendPrediction(dst, buf, a, now)
	}
	return append(dst, p.Predict(a, now)...), buf
}
