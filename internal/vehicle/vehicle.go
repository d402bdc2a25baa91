// Package vehicle provides vehicle parameter presets and lane-relative
// (Frenet) kinematic integration. Agents move longitudinally along a
// road station with a scalar speed/acceleration and laterally with an
// offset velocity; the package converts that state to world-frame
// agents for sensing, collision detection, and the Zhuyi model.
package vehicle

import (
	"math"

	"repro/internal/road"
	"repro/internal/world"
)

// Params are the physical properties and actuation limits of a vehicle.
type Params struct {
	Length       float64 // m
	Width        float64 // m
	MaxAccel     float64 // m/s², forward
	MaxBrake     float64 // m/s², positive magnitude of the hardest braking
	ComfortBrake float64 // m/s², positive magnitude of comfortable braking
	MaxSpeed     float64 // m/s
}

// Car returns parameters for a typical passenger car. MaxBrake matches
// the emergency deceleration commonly assumed for AEB (~0.75 g), well
// above the paper's minimum braking deceleration C3 = 4.9 m/s² (0.5 g).
func Car() Params {
	return Params{
		Length:       4.6,
		Width:        1.9,
		MaxAccel:     3.0,
		MaxBrake:     7.5,
		ComfortBrake: 2.5,
		MaxSpeed:     55,
	}
}

// Truck returns parameters for a box truck: longer, wider, weaker brakes.
func Truck() Params {
	return Params{
		Length:       8.5,
		Width:        2.5,
		MaxAccel:     1.8,
		MaxBrake:     5.0,
		ComfortBrake: 1.8,
		MaxSpeed:     38,
	}
}

// StaticObstacle returns parameters for a static road obstacle (e.g. the
// revealed obstacle in the paper's Cut-out scenario).
func StaticObstacle() Params {
	return Params{Length: 4.0, Width: 1.9}
}

// FrenetState is a lane-relative kinematic state: station S along the
// road reference line, left-positive lateral offset D, longitudinal
// Speed and Accel, and lateral velocity LatVel.
type FrenetState struct {
	S      float64
	D      float64
	Speed  float64
	Accel  float64
	LatVel float64
}

// StepInPlace integrates the state forward by dt seconds with the
// current acceleration, stopping cleanly at zero speed (vehicles do not
// reverse in the paper's scenarios).
func (f *FrenetState) StepInPlace(dt float64) {
	if dt <= 0 {
		return
	}
	v0 := f.Speed
	a := f.Accel
	if a < 0 && v0+a*dt < 0 {
		// Decelerating to a stop mid-step: advance only until the stop.
		tStop := v0 / -a
		f.S += v0*tStop + 0.5*a*tStop*tStop
		f.Speed = 0
	} else {
		f.S += v0*dt + 0.5*a*dt*dt
		f.Speed = v0 + a*dt
	}
	f.D += f.LatVel * dt
}

// ToAgent converts the Frenet state to a world-frame agent on the given
// road. The heading blends the road tangent with the lateral motion so
// lane-changing vehicles yaw realistically.
func (f FrenetState) ToAgent(r *road.Road, id string, p Params) world.Agent {
	var a world.Agent
	f.FillAgent(&a, r, id, p)
	return a
}

// FillAgent is ToAgent writing into dst in place — per-step callers
// (the shared ground-truth ego slot) skip the copy through the return
// value.
func (f FrenetState) FillAgent(dst *world.Agent, r *road.Road, id string, p Params) {
	pose := r.PoseAtOffset(f.S, f.D)
	// Field writes, not a composite literal: the literal would build a
	// 112-byte temporary and block-copy it into dst on every call.
	dst.ID = id
	dst.Pose.Pos = pose.Pos
	dst.Pose.Heading = f.worldHeading(pose.Heading)
	dst.Speed = f.Speed
	dst.Accel = f.Accel
	dst.LatVel = f.LatVel
	dst.Length = p.Length
	dst.Width = p.Width
	dst.Lane = r.LaneAt(f.D)
	dst.Static = p.MaxAccel == 0 && f.Speed == 0
}

// worldHeading returns the agent heading for the state: the road
// tangent blended with the lateral motion (the ToAgent rule).
func (f FrenetState) worldHeading(refHeading float64) float64 {
	if f.Speed > 0.1 {
		if f.LatVel == 0 {
			// Atan2(±0, x>0) returns ±0 bitwise, so adding LatVel itself
			// is exactly the blend below — minus the call, which this hot
			// path (every agent, every step) would otherwise pay even for
			// the overwhelmingly common straight-driving case.
			return refHeading + f.LatVel
		}
		return refHeading + math.Atan2(f.LatVel, f.Speed)
	}
	return refHeading
}

// ScatterTo writes the state's world-frame view straight into frame
// column i: ToAgent minus the intermediate Agent value (and its two
// 112-byte copies), for the per-step ground-truth scatter. The stored
// columns are exactly ToAgent's fields.
func (f FrenetState) ScatterTo(fr *world.Frame, i int, r *road.Road, id string, p Params) {
	pose := r.PoseAtOffset(f.S, f.D)
	pose.Heading = f.worldHeading(pose.Heading)
	fr.SetDirect(i, id, pose, f.Speed, f.Accel, f.LatVel, p.Length, p.Width,
		r.LaneAt(f.D), p.MaxAccel == 0 && f.Speed == 0)
}

// ClampAccel limits a requested acceleration to the vehicle's actuation
// envelope (MaxAccel forward, MaxBrake reverse) and prevents commanding
// forward acceleration beyond MaxSpeed.
func (p Params) ClampAccel(req, speed float64) float64 {
	a := max(-p.MaxBrake, min(p.MaxAccel, req))
	if speed >= p.MaxSpeed && a > 0 {
		a = 0
	}
	return a
}
