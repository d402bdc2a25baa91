package geom

import "math"

// Quad is an OBB with its face axes and corners materialized once, for
// the hot sweeps (collision checks, occlusion rays, FOV sampling) that
// interrogate the same box several times per simulation step. Every
// predicate reproduces the corresponding OBB method bit for bit: the
// cached axes are exactly FromAngle(Heading) / its perpendicular, the
// corners exactly OBB.Corners(), and the arithmetic below keeps the
// same operation order, so a cached decision never differs from the
// uncached one (geom_equiv_test.go asserts this exhaustively).
type Quad struct {
	Box      OBB
	AxF, AxL Vec2    // unit face axes: forward (along Heading) and left
	C        [4]Vec2 // corners, CCW from front-left — OBB.Corners()
}

// MakeQuad materializes the box's axes and corners. One SinCos here
// replaces one per subsequent Contains/Intersects/HitBy call.
func MakeQuad(b OBB) Quad {
	sin, cos := SinCos(b.Heading)
	return MakeQuadTrig(b, sin, cos)
}

// MakeQuadTrig is MakeQuad for callers that already hold the heading's
// sine and cosine (the SoA world frame caches them per agent per
// step). The values must be exactly SinCos(b.Heading) for the
// bit-equivalence guarantee to hold.
func MakeQuadTrig(b OBB, sin, cos float64) Quad {
	axF := Vec2{cos, sin}
	axL := axF.Perp()
	f := axF.Scale(b.Length / 2)
	l := axL.Scale(b.Width / 2)
	return Quad{
		Box: b,
		AxF: axF,
		AxL: axL,
		C: [4]Vec2{
			b.Center.Add(f).Add(l), // front-left
			b.Center.Sub(f).Add(l), // rear-left
			b.Center.Sub(f).Sub(l), // rear-right
			b.Center.Add(f).Sub(l), // front-right
		},
	}
}

// Contains reports whether the point lies inside or on the box,
// exactly as OBB.Contains: projecting onto the cached axes computes
// the same products the Rotate(-Heading) transform does (sin is odd
// and cos even bitwise, and subtracting an exact negation equals
// adding), so the comparison sees identical local coordinates.
func (q *Quad) Contains(p Vec2) bool {
	d := p.Sub(q.Box.Center)
	u := d.X*q.AxF.X + d.Y*q.AxF.Y
	v := d.X*q.AxL.X + d.Y*q.AxL.Y
	return math.Abs(u) <= q.Box.Length/2+1e-12 && math.Abs(v) <= q.Box.Width/2+1e-12
}

// Intersects reports whether two quads overlap — the separating-axis
// test of OBB.Intersects over the cached corners and face normals.
func (q *Quad) Intersects(o *Quad) bool {
	axes := [4]Vec2{q.AxF, q.AxL, o.AxF, o.AxL}
	for _, axis := range axes {
		bmin, bmax := projectCorners(q.C, axis)
		omin, omax := projectCorners(o.C, axis)
		if bmax < omin || omax < bmin {
			return false // separating axis found
		}
	}
	return true
}

// HitBy reports whether the segment touches the quad: either endpoint
// inside, or the segment crossing any edge.
func (q *Quad) HitBy(s Segment) bool {
	if q.Contains(s.A) || q.Contains(s.B) {
		return true
	}
	for i := 0; i < 4; i++ {
		edge := Segment{A: q.C[i], B: q.C[(i+1)%4]}
		if s.Intersects(edge) {
			return true
		}
	}
	return false
}

// DistSqToPoint returns the squared minimum distance from p to the
// segment, for prefilters that compare against a squared radius
// without paying a sqrt.
func (s Segment) DistSqToPoint(p Vec2) float64 {
	return s.PointAt(s.ClosestParam(p)).Sub(p).LenSq()
}
