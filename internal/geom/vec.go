// Package geom provides the 2-D geometry primitives used by the road
// model, the simulator, the sensor FOV tests, and collision detection:
// vectors, poses, oriented bounding boxes with separating-axis
// intersection, and segment utilities.
//
// The world reference frame follows the paper's Figure 2: a 2-D top view
// with X in the longitudinal direction of the ego's initial heading and Y
// in the lateral direction. Headings are radians counter-clockwise from
// the +X axis.
package geom

import "math"

// Vec2 is a point or direction in the 2-D world frame.
type Vec2 struct {
	X, Y float64
}

// V constructs a Vec2.
func V(x, y float64) Vec2 { return Vec2{X: x, Y: y} }

// Add returns v + o.
func (v Vec2) Add(o Vec2) Vec2 { return Vec2{v.X + o.X, v.Y + o.Y} }

// Sub returns v - o.
func (v Vec2) Sub(o Vec2) Vec2 { return Vec2{v.X - o.X, v.Y - o.Y} }

// Scale returns v scaled by k.
func (v Vec2) Scale(k float64) Vec2 { return Vec2{v.X * k, v.Y * k} }

// Dot returns the dot product of v and o.
func (v Vec2) Dot(o Vec2) float64 { return v.X*o.X + v.Y*o.Y }

// Cross returns the z component of the 3-D cross product of v and o.
func (v Vec2) Cross(o Vec2) float64 { return v.X*o.Y - v.Y*o.X }

// Len returns the Euclidean length of v.
func (v Vec2) Len() float64 { return math.Hypot(v.X, v.Y) }

// LenSq returns the squared length of v, avoiding a sqrt.
func (v Vec2) LenSq() float64 { return v.X*v.X + v.Y*v.Y }

// Dist returns the Euclidean distance between v and o.
func (v Vec2) Dist(o Vec2) float64 { return v.Sub(o).Len() }

// Perp returns v rotated +90 degrees (counter-clockwise).
func (v Vec2) Perp() Vec2 { return Vec2{-v.Y, v.X} }

// Rotate returns v rotated by rad radians counter-clockwise.
func (v Vec2) Rotate(rad float64) Vec2 {
	s, c := SinCos(rad)
	return Vec2{v.X*c - v.Y*s, v.X*s + v.Y*c}
}

// Angle returns the heading of v in radians in (-π, π].
func (v Vec2) Angle() float64 { return math.Atan2(v.Y, v.X) }

// Lerp linearly interpolates from v to o by t (t=0 ⇒ v, t=1 ⇒ o).
func (v Vec2) Lerp(o Vec2, t float64) Vec2 {
	return Vec2{v.X + (o.X-v.X)*t, v.Y + (o.Y-v.Y)*t}
}

// FromAngle returns the unit vector with the given heading.
func FromAngle(rad float64) Vec2 {
	s, c := SinCos(rad)
	return Vec2{c, s}
}

// SinCos is math.Sincos with a fast path for the exact zero angle,
// the overwhelmingly common heading on straight-road scenarios. The
// shortcut is bit-exact: sin(±0) = ±0 (returning rad preserves the
// sign of zero) and cos(±0) = 1, so callers cannot observe which
// branch ran.
func SinCos(rad float64) (sin, cos float64) {
	if rad == 0 {
		return rad, 1
	}
	return math.Sincos(rad)
}

// Pose is a position plus heading in the world frame.
type Pose struct {
	Pos     Vec2
	Heading float64 // radians CCW from +X
}

// Forward returns the unit vector along the pose heading.
func (p Pose) Forward() Vec2 { return FromAngle(p.Heading) }

// Left returns the unit vector 90° left of the pose heading.
func (p Pose) Left() Vec2 { return FromAngle(p.Heading).Perp() }

// ToLocal transforms a world-frame point into the pose's local frame
// (x forward, y left).
func (p Pose) ToLocal(world Vec2) Vec2 {
	d := world.Sub(p.Pos)
	return d.Rotate(-p.Heading)
}
