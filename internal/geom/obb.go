package geom

import "math"

// OBB is an oriented bounding box: a rectangle of the given full length
// (along the heading) and full width (perpendicular), centered at Center.
// It is the collision footprint used for vehicles.
type OBB struct {
	Center  Vec2
	Heading float64
	Length  float64 // full extent along Heading
	Width   float64 // full extent perpendicular to Heading
}

// NewOBB builds an OBB from a pose and full dimensions.
func NewOBB(p Pose, length, width float64) OBB {
	return OBB{Center: p.Pos, Heading: p.Heading, Length: length, Width: width}
}

// Corners returns the four corners in counter-clockwise order starting
// from the front-left corner.
func (b OBB) Corners() [4]Vec2 {
	f := FromAngle(b.Heading).Scale(b.Length / 2)
	l := FromAngle(b.Heading).Perp().Scale(b.Width / 2)
	return [4]Vec2{
		b.Center.Add(f).Add(l), // front-left
		b.Center.Sub(f).Add(l), // rear-left
		b.Center.Sub(f).Sub(l), // rear-right
		b.Center.Add(f).Sub(l), // front-right
	}
}

// Contains reports whether the point lies inside or on the box.
func (b OBB) Contains(p Vec2) bool {
	local := p.Sub(b.Center).Rotate(-b.Heading)
	return math.Abs(local.X) <= b.Length/2+1e-12 && math.Abs(local.Y) <= b.Width/2+1e-12
}

// Intersects reports whether two OBBs overlap, using the separating axis
// theorem over the four face normals of the two boxes.
func (b OBB) Intersects(o OBB) bool {
	axes := [4]Vec2{
		FromAngle(b.Heading),
		FromAngle(b.Heading).Perp(),
		FromAngle(o.Heading),
		FromAngle(o.Heading).Perp(),
	}
	bc := b.Corners()
	oc := o.Corners()
	for _, axis := range axes {
		bmin, bmax := projectCorners(bc, axis)
		omin, omax := projectCorners(oc, axis)
		if bmax < omin || omax < bmin {
			return false // separating axis found
		}
	}
	return true
}

func projectCorners(c [4]Vec2, axis Vec2) (min, max float64) {
	min = c[0].Dot(axis)
	max = min
	for i := 1; i < 4; i++ {
		d := c[i].Dot(axis)
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	return min, max
}

// Segment is a directed line segment from A to B.
type Segment struct {
	A, B Vec2
}

// PointAt returns the point at parameter t ∈ [0,1] along the segment.
func (s Segment) PointAt(t float64) Vec2 { return s.A.Lerp(s.B, t) }

// ClosestParam returns the parameter t ∈ [0,1] of the point on the
// segment closest to p.
func (s Segment) ClosestParam(p Vec2) float64 {
	d := s.B.Sub(s.A)
	den := d.LenSq()
	if den == 0 {
		return 0
	}
	t := p.Sub(s.A).Dot(d) / den
	return math.Max(0, math.Min(1, t))
}

// Intersects reports whether two segments intersect (including touching).
func (s Segment) Intersects(o Segment) bool {
	d1 := s.B.Sub(s.A)
	d2 := o.B.Sub(o.A)
	den := d1.Cross(d2)
	diff := o.A.Sub(s.A)
	if math.Abs(den) < 1e-15 {
		// Parallel: intersect only if collinear and overlapping.
		if math.Abs(diff.Cross(d1)) > 1e-12 {
			return false
		}
		l2 := d1.LenSq()
		if l2 == 0 {
			return s.A.Dist(o.A) < 1e-12 || s.A.Dist(o.B) < 1e-12
		}
		t0 := diff.Dot(d1) / l2
		t1 := o.B.Sub(s.A).Dot(d1) / l2
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		return t1 >= 0 && t0 <= 1
	}
	t := diff.Cross(d2) / den
	u := diff.Cross(d1) / den
	return t >= 0 && t <= 1 && u >= 0 && u <= 1
}
