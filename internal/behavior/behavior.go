// Package behavior provides scripted actor maneuvers for driving
// scenarios: cruising, braking, lane changes (cut-in/cut-out), following
// the ego, and holding a position beside the ego. Behaviors are composed
// into trigger-gated scripts, which is how the paper's nine validation
// scenarios (Table 1) choreograph their actors.
//
// A behavior consumes the actor's lane-relative state each simulation
// step and produces longitudinal acceleration and lateral velocity
// commands. Between scripted stages an actor cruises at constant speed.
package behavior

import (
	"math"

	"repro/internal/road"
	"repro/internal/vehicle"
)

// Context is the per-step information available to triggers and actions.
type Context struct {
	Time float64
	Road *road.Road
	Ego  vehicle.FrenetState
}

// Trigger decides when a script stage starts.
type Trigger func(ctx *Context, st vehicle.FrenetState) bool

// Immediately fires on the first step.
func Immediately() Trigger {
	return func(*Context, vehicle.FrenetState) bool { return true }
}

// AtTime fires once the simulation clock reaches t seconds.
func AtTime(t float64) Trigger {
	return func(ctx *Context, _ vehicle.FrenetState) bool { return ctx.Time >= t }
}

// WhenGapToEgoBelow fires when the actor's station lead over the ego
// (st.S − ego.S, positive when the actor is ahead) drops to gap meters
// or less. This is the natural trigger for cut-out maneuvers: the lead
// actor swerves when the ego closes in.
func WhenGapToEgoBelow(gap float64) Trigger {
	return func(ctx *Context, st vehicle.FrenetState) bool { return st.S-ctx.Ego.S <= gap }
}

// WhenGapToEgoAbove fires when the actor's station lead over the ego
// (st.S − ego.S) reaches gap meters or more; used by cut-in actors that
// pull ahead before merging.
func WhenGapToEgoAbove(gap float64) Trigger {
	return func(ctx *Context, st vehicle.FrenetState) bool { return st.S-ctx.Ego.S >= gap }
}

// WhenEgoWithin fires when the absolute station distance between actor
// and ego is at most dist meters.
func WhenEgoWithin(dist float64) Trigger {
	return func(ctx *Context, st vehicle.FrenetState) bool {
		return math.Abs(st.S-ctx.Ego.S) <= dist
	}
}

// AtStation fires when the actor reaches station s.
func AtStation(s float64) Trigger {
	return func(_ *Context, st vehicle.FrenetState) bool { return st.S >= s }
}

// Action produces control commands for one scripted maneuver.
type Action interface {
	// Init is called once, when the stage's trigger fires.
	Init(ctx *Context, st vehicle.FrenetState)
	// Apply returns the longitudinal acceleration and lateral velocity to
	// use for this step, and whether the action has completed.
	Apply(ctx *Context, st vehicle.FrenetState, dt float64) (accel, latVel float64, done bool)
}

// Stage pairs a trigger with an action.
type Stage struct {
	When Trigger
	Do   Action
}

// Script runs stages in order: it waits (cruising) until the current
// stage's trigger fires, runs the stage's action to completion, then
// moves on. After the last stage the actor cruises at constant speed.
type Script struct {
	Stages []Stage

	idx    int
	active bool
}

// NewScript builds a script from stages.
func NewScript(stages ...Stage) *Script { return &Script{Stages: stages} }

// StepInto advances the actor state st in place by dt under script
// control.
func (sc *Script) StepInto(ctx *Context, st *vehicle.FrenetState, dt float64) {
	accel, latVel := 0.0, 0.0
	if sc.idx < len(sc.Stages) {
		stage := &sc.Stages[sc.idx]
		if !sc.active && stage.When(ctx, *st) {
			sc.active = true
			stage.Do.Init(ctx, *st)
		}
		if sc.active {
			var done bool
			accel, latVel, done = stage.Do.Apply(ctx, *st, dt)
			if done {
				sc.idx++
				sc.active = false
			}
		}
	}
	st.Accel = accel
	st.LatVel = latVel
	st.StepInPlace(dt)
}

// BrakeTo decelerates at Decel (positive magnitude) until the speed
// drops to Target m/s. It reproduces maneuvers like the paper's Vehicle
// following scenario, where "the actor applies sudden braking, reducing
// its speed to zero".
type BrakeTo struct {
	Target float64
	Decel  float64
}

// Init implements Action.
func (b *BrakeTo) Init(*Context, vehicle.FrenetState) {}

// Apply implements Action.
func (b *BrakeTo) Apply(_ *Context, st vehicle.FrenetState, _ float64) (float64, float64, bool) {
	if st.Speed <= b.Target+1e-9 {
		return 0, 0, true
	}
	return -b.Decel, 0, false
}

// AccelTo accelerates at Accel until the speed reaches Target m/s.
type AccelTo struct {
	Target float64
	Accel  float64
}

// Init implements Action.
func (a *AccelTo) Init(*Context, vehicle.FrenetState) {}

// Apply implements Action.
func (a *AccelTo) Apply(_ *Context, st vehicle.FrenetState, _ float64) (float64, float64, bool) {
	if st.Speed >= a.Target-1e-9 {
		return 0, 0, true
	}
	return a.Accel, 0, false
}

// LaneChange moves the actor laterally from its current offset to the
// center of TargetLane over Duration seconds with a smooth single-period
// sinusoidal profile (zero lateral velocity at both ends). It implements
// both cut-in (into the ego's lane) and cut-out (away from it).
type LaneChange struct {
	TargetLane int
	Duration   float64

	t0, d0, d1 float64
}

// Init implements Action.
func (lc *LaneChange) Init(ctx *Context, st vehicle.FrenetState) {
	lc.t0 = ctx.Time
	lc.d0 = st.D
	lc.d1 = ctx.Road.LaneCenterOffset(lc.TargetLane)
}

// Apply implements Action.
func (lc *LaneChange) Apply(ctx *Context, _ vehicle.FrenetState, _ float64) (float64, float64, bool) {
	if lc.Duration <= 0 {
		return 0, 0, true
	}
	tau := (ctx.Time - lc.t0) / lc.Duration
	if tau >= 1 {
		return 0, 0, true
	}
	// d(tau) = d0 + (d1-d0)*(tau - sin(2π tau)/(2π)); latVel is its time
	// derivative, which starts and ends at zero.
	latVel := (lc.d1 - lc.d0) / lc.Duration * (1 - math.Cos(2*math.Pi*tau))
	return 0, latVel, false
}

// FollowEgo trails the ego at the desired station gap using a
// proportional-derivative controller. It never completes; use it as the
// final stage (e.g. "another actor is launched at the back of the ego
// and follows the ego", paper §4.1).
type FollowEgo struct {
	Gap      float64 // desired ego.S − actor.S, m
	MaxAccel float64
	MaxBrake float64
}

// Init implements Action.
func (f *FollowEgo) Init(*Context, vehicle.FrenetState) {}

// Apply implements Action.
func (f *FollowEgo) Apply(ctx *Context, st vehicle.FrenetState, _ float64) (float64, float64, bool) {
	const kGap, kVel = 0.4, 1.2
	gapErr := (ctx.Ego.S - st.S) - f.Gap
	velErr := ctx.Ego.Speed - st.Speed
	a := kGap*gapErr + kVel*velErr
	a = math.Max(-f.MaxBrake, math.Min(f.MaxAccel, a))
	return a, 0, false
}

// MatchBeside holds a station offset relative to the ego ("matches its
// position side to side to the ego with similar speed", paper §4.1).
// OffsetS is the desired actor.S − ego.S. It never completes.
type MatchBeside struct {
	OffsetS  float64
	MaxAccel float64
	MaxBrake float64
}

// Init implements Action.
func (m *MatchBeside) Init(*Context, vehicle.FrenetState) {}

// Apply implements Action.
func (m *MatchBeside) Apply(ctx *Context, st vehicle.FrenetState, _ float64) (float64, float64, bool) {
	const kGap, kVel = 0.5, 1.4
	gapErr := (ctx.Ego.S + m.OffsetS) - st.S
	velErr := ctx.Ego.Speed - st.Speed
	a := kGap*gapErr + kVel*velErr
	a = math.Max(-m.MaxBrake, math.Min(m.MaxAccel, a))
	return a, 0, false
}

// Drift applies a constant lateral velocity for Duration seconds —
// used for crossing agents (pedestrians, cyclists) that traverse the
// road laterally rather than changing lanes.
type Drift struct {
	LatVel   float64
	Duration float64

	t0      float64
	started bool
}

// Init implements Action.
func (d *Drift) Init(ctx *Context, _ vehicle.FrenetState) { d.t0 = ctx.Time; d.started = true }

// Apply implements Action.
func (d *Drift) Apply(ctx *Context, _ vehicle.FrenetState, _ float64) (float64, float64, bool) {
	if ctx.Time-d.t0 >= d.Duration {
		return 0, 0, true
	}
	return 0, d.LatVel, false
}
