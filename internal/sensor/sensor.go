// Package sensor models the AV's camera rig as field-of-view cones
// attached to the ego pose. The paper's vehicle carries five cameras —
// two front cameras (60° and 120° FOV), two side cameras, and a rear
// camera — and analyzes the 120° front camera plus the two side cameras.
// Zhuyi's per-camera aggregation (Equation 5) needs only FOV membership:
// which actors each camera can see.
package sensor

import (
	"math"

	"repro/internal/geom"
	"repro/internal/units"
	"repro/internal/world"
)

// Camera is one FOV cone. MountHeading is relative to the ego heading
// (0 = forward, +π/2 = left). FOV is the full opening angle.
type Camera struct {
	Name         string
	MountHeading float64 // rad, relative to ego heading
	FOV          float64 // rad, full angle
	Range        float64 // m
}

// SeesPoint reports whether the camera at the given ego pose sees the
// world point.
func (c Camera) SeesPoint(ego geom.Pose, p geom.Vec2) bool {
	d := p.Sub(ego.Pos)
	dist := d.Len()
	if dist > c.Range {
		return false
	}
	if dist < 1e-9 {
		return true
	}
	rel := units.NormalizeAngle(d.Angle() - ego.Heading - c.MountHeading)
	return math.Abs(rel) <= c.FOV/2
}

// SeesAgent reports whether any salient point of the agent's bounding
// box (center, bumpers, corners) is inside the camera cone. Sampling
// multiple points keeps long vehicles visible when only their tail
// crosses the cone edge.
func (c Camera) SeesAgent(ego geom.Pose, a world.Agent) bool {
	if c.SeesPoint(ego, a.Pose.Pos) {
		return true
	}
	bumper := a.Pose.Forward().Scale(a.Length / 2)
	if c.SeesPoint(ego, a.Pose.Pos.Add(bumper)) || c.SeesPoint(ego, a.Pose.Pos.Sub(bumper)) {
		return true
	}
	for _, corner := range a.BBox().Corners() {
		if c.SeesPoint(ego, corner) {
			return true
		}
	}
	return false
}

// Canonical camera names for the paper's five-camera rig.
const (
	Front120 = "front120"
	Front60  = "front60"
	Left     = "left"
	Right    = "right"
	Rear     = "rear"
)

// Rig is an ordered set of cameras.
type Rig []Camera

// DefaultRig returns the paper's five-camera arrangement: two front
// cameras (120° wide/medium range and 60° narrow/long range), two 120°
// side cameras, and a rear camera.
func DefaultRig() Rig {
	return Rig{
		{Name: Front120, MountHeading: 0, FOV: units.DegToRad(120), Range: 150},
		{Name: Front60, MountHeading: 0, FOV: units.DegToRad(60), Range: 250},
		{Name: Left, MountHeading: math.Pi / 2, FOV: units.DegToRad(120), Range: 80},
		{Name: Right, MountHeading: -math.Pi / 2, FOV: units.DegToRad(120), Range: 80},
		{Name: Rear, MountHeading: math.Pi, FOV: units.DegToRad(120), Range: 100},
	}
}

// AnalyzedCameras are the cameras the paper reports results for
// (Table 1's F_c1..F_c3 and Figures 4–6): the 120° front camera and the
// two side cameras.
func AnalyzedCameras() []string { return []string{Front120, Left, Right} }

// Names returns the camera names in rig order.
func (r Rig) Names() []string {
	names := make([]string, len(r))
	for i, c := range r {
		names[i] = c.Name
	}
	return names
}
