// Package world defines the shared kinematic state types exchanged
// between the simulator, the perception stack, the trajectory
// predictors, the planner, and the Zhuyi model: agents (the ego and the
// surrounding actors of the paper's Figure 2), world snapshots, and
// timed trajectories.
package world

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

// EgoID is the agent ID reserved for the ego vehicle. The paper refers
// to the AV as the ego; dynamic objects in a scenario are actors.
const EgoID = "ego"

// Agent is the kinematic state of one vehicle (ego or actor) at an
// instant, in the 2-D world frame.
type Agent struct {
	ID     string
	Pose   geom.Pose
	Speed  float64 // longitudinal speed along the heading, m/s, >= 0
	Accel  float64 // longitudinal acceleration, m/s² (negative = braking)
	LatVel float64 // lateral velocity, left-positive, m/s (lane changes)
	Length float64 // bounding-box length, m
	Width  float64 // bounding-box width, m
	Lane   int     // lane index the agent is (mostly) occupying
	Static bool    // true for parked/static obstacles
}

// BBox returns the collision footprint of the agent.
func (a Agent) BBox() geom.OBB { return geom.NewOBB(a.Pose, a.Length, a.Width) }

// FootprintRadiusBound returns a cheap, strict upper bound on the
// footprint's half-diagonal — every point of an L×W box lies within
// this radius of its center: (L+W)/2 ≥ √((L/2)²+(W/2)²), no sqrt
// needed. A fixed margin absorbs floating-point rounding so hot-path
// pre-filters built on the bound (the simulator's collision sweep, the
// sensor cone rejects) stay strictly conservative: borderline cases
// always fall through to the exact geometry, so the pre-filtered
// decision never differs from the unfiltered one.
func FootprintRadiusBound(length, width float64) float64 {
	const margin = 1e-6
	return (length+width)/2 + margin
}

// Velocity returns the world-frame velocity vector: longitudinal speed
// along the heading plus lateral velocity to the left. Left is
// Forward rotated a quarter turn, so one FromAngle serves both terms.
func (a Agent) Velocity() geom.Vec2 {
	fwd := geom.FromAngle(a.Pose.Heading)
	return fwd.Scale(a.Speed).Add(fwd.Perp().Scale(a.LatVel))
}

// Validate reports obviously inconsistent states.
func (a Agent) Validate() error {
	if a.ID == "" {
		return fmt.Errorf("agent: empty ID")
	}
	if a.Length <= 0 || a.Width <= 0 {
		return fmt.Errorf("agent %s: non-positive dimensions %vx%v", a.ID, a.Length, a.Width)
	}
	if a.Speed < 0 {
		return fmt.Errorf("agent %s: negative speed %v", a.ID, a.Speed)
	}
	if math.IsNaN(a.Speed) || math.IsNaN(a.Pose.Pos.X) || math.IsNaN(a.Pose.Pos.Y) {
		return fmt.Errorf("agent %s: NaN state", a.ID)
	}
	return nil
}

// Snapshot is the full ground-truth (or perceived) world state at one
// instant: the ego and every surrounding actor.
type Snapshot struct {
	Time   float64
	Ego    Agent
	Actors []Agent
}

// TrajectoryPoint is one timed sample of a predicted or recorded
// trajectory.
type TrajectoryPoint struct {
	T       float64 // absolute time, s
	Pos     geom.Vec2
	Heading float64
	Speed   float64 // scalar speed along Heading, m/s
	Accel   float64 // longitudinal acceleration, m/s²
}

// Trajectory is a time-ordered sequence of states for one agent, with a
// probability weight used by the paper's Equation 4 aggregation. A
// recorded ground-truth future has Prob = 1 and is the only member of
// its set (|T| = 1, paper §3.1).
type Trajectory struct {
	ActorID string
	Prob    float64
	Points  []TrajectoryPoint
}

// Sampler evaluates one trajectory's points at a run of query times.
// It remembers the segment the previous query landed in: a caller
// whose times mostly move forward (the Zhuyi threat scan and t_n walk)
// finds the next segment a step or two ahead instead of binary
// searching. Values do not depend on the query order. A Sampler is a
// plain value, so a caller can keep it on the stack.
type Sampler struct {
	Points []TrajectoryPoint // time-ordered, as in Trajectory
	hint   int               // index the last interior search returned
}

// search returns the first index whose T is >= t, for a t strictly
// inside (Points[0].T, Points[n-1].T), as sort.Search over Points
// would. When the point before the hint is earlier than t, time order
// puts the answer at or after the hint and a forward walk finds it;
// otherwise it falls back to sort.Search. The walk stops at n-1 at the
// latest, since Points[n-1].T > t.
func (s *Sampler) search(t float64) int {
	pts := s.Points
	i := s.hint
	if i > 0 && pts[i-1].T < t {
		for pts[i].T < t {
			i++
		}
	} else {
		i = sort.Search(len(pts), func(i int) bool { return pts[i].T >= t })
	}
	s.hint = i
	return i
}

// At returns the interpolated state at absolute time t. Times before
// the first sample, and a NaN time, return the first sample; times
// beyond the last sample extrapolate at constant velocity from the last
// sample, which keeps the Zhuyi search well-defined near the horizon
// edge. An empty trajectory returns the zero point at t.
func (s *Sampler) At(t float64) TrajectoryPoint {
	pts := s.Points
	n := len(pts)
	if n == 0 {
		return TrajectoryPoint{T: t}
	}
	if !(t > pts[0].T) {
		p := pts[0]
		p.T = t
		return p
	}
	if t >= pts[n-1].T {
		last := pts[n-1]
		dt := t - last.T
		p := last
		p.T = t
		p.Pos = last.Pos.Add(geom.FromAngle(last.Heading).Scale(last.Speed * dt))
		p.Accel = 0
		return p
	}
	i := s.search(t)
	a, b := pts[i-1], pts[i]
	span := b.T - a.T
	if span <= 0 {
		return b
	}
	u := (t - a.T) / span
	return TrajectoryPoint{
		T:       t,
		Pos:     a.Pos.Lerp(b.Pos, u),
		Heading: a.Heading + (b.Heading-a.Heading)*u,
		Speed:   a.Speed + (b.Speed-a.Speed)*u,
		Accel:   a.Accel + (b.Accel-a.Accel)*u,
	}
}

// Pos is At(t).Pos without interpolating heading, speed or
// acceleration.
func (s *Sampler) Pos(t float64) geom.Vec2 {
	pts := s.Points
	n := len(pts)
	if n == 0 {
		return geom.Vec2{}
	}
	if !(t > pts[0].T) {
		return pts[0].Pos
	}
	if t >= pts[n-1].T {
		last := &pts[n-1]
		return last.Pos.Add(geom.FromAngle(last.Heading).Scale(last.Speed * (t - last.T)))
	}
	i := s.search(t)
	a, b := &pts[i-1], &pts[i]
	span := b.T - a.T
	if span <= 0 {
		return b.Pos
	}
	return a.Pos.Lerp(b.Pos, (t-a.T)/span)
}

// Validate reports structural problems: unsorted times or an invalid
// probability.
func (tr Trajectory) Validate() error {
	if tr.Prob < 0 || tr.Prob > 1 || math.IsNaN(tr.Prob) {
		return fmt.Errorf("trajectory %s: probability %v out of [0,1]", tr.ActorID, tr.Prob)
	}
	for i := 1; i < len(tr.Points); i++ {
		if tr.Points[i].T < tr.Points[i-1].T {
			return fmt.Errorf("trajectory %s: unsorted times at index %d", tr.ActorID, i)
		}
	}
	return nil
}
