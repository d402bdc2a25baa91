// Package road models multi-lane roads as a reference centerline plus
// parallel lanes, with conversions between world coordinates and
// station–offset (Frenet) coordinates. The paper's scenarios take place
// on 3-lane straight roads and one constant-curvature curved road; both
// are supported, as are piecewise-composite centerlines.
//
// Conventions: stations (s) are meters along the reference line from its
// start; offsets (d) are meters to the left of the reference line. The
// reference line is the centerline of lane 0, the rightmost lane; lane i
// is centered at offset i·LaneWidth.
package road

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/geom"
)

// Centerline is a parametric reference curve.
type Centerline interface {
	// PoseAt returns the pose (position and tangent heading) at station s.
	// Stations outside [0, Length] extrapolate along the end tangents.
	PoseAt(s float64) geom.Pose
	// Project returns the station and left-positive lateral offset of the
	// world point p relative to the curve.
	Project(p geom.Vec2) (s, d float64)
	// Length returns the total curve length in meters.
	Length() float64
}

// Line is a straight centerline starting at Start and running Len meters
// along the start heading.
type Line struct {
	Start geom.Pose
	Len   float64
}

// PoseAt implements Centerline.
func (l Line) PoseAt(s float64) geom.Pose {
	return geom.Pose{Pos: l.Start.Pos.Add(l.Start.Forward().Scale(s)), Heading: l.Start.Heading}
}

// Project implements Centerline.
func (l Line) Project(p geom.Vec2) (s, d float64) {
	local := l.Start.ToLocal(p)
	return local.X, local.Y
}

// Length implements Centerline.
func (l Line) Length() float64 { return l.Len }

// Arc is a constant-curvature centerline. Curv is the signed curvature;
// positive turns left, negative turns right. Curv must be non-zero (use
// Line for straight sections).
type Arc struct {
	Start geom.Pose
	Curv  float64
	Len   float64
}

func (a Arc) center() geom.Vec2 {
	return a.Start.Pos.Add(a.Start.Left().Scale(1 / a.Curv))
}

// PoseAt implements Centerline.
func (a Arc) PoseAt(s float64) geom.Pose {
	c := a.center()
	r0 := a.Start.Pos.Sub(c)
	theta := s * a.Curv
	return geom.Pose{Pos: c.Add(r0.Rotate(theta)), Heading: a.Start.Heading + theta}
}

// Project implements Centerline.
func (a Arc) Project(p geom.Vec2) (s, d float64) {
	c := a.center()
	r0 := a.Start.Pos.Sub(c)
	u := p.Sub(c)
	theta := math.Atan2(r0.Cross(u), r0.Dot(u))
	s = theta / a.Curv
	radius := math.Abs(1 / a.Curv)
	sign := 1.0
	if a.Curv < 0 {
		sign = -1.0
	}
	d = sign * (radius - u.Len())
	return s, d
}

// Length implements Centerline.
func (a Arc) Length() float64 { return a.Len }

// Composite chains centerline pieces end to end. The caller is
// responsible for geometric continuity (each piece should start where
// the previous one ends); the builders in this package guarantee it.
type Composite struct {
	pieces []Centerline
	starts []float64 // cumulative start station of each piece
	total  float64
}

// NewComposite builds a composite centerline from the given pieces.
func NewComposite(pieces ...Centerline) *Composite {
	c := &Composite{pieces: pieces}
	for _, p := range pieces {
		c.starts = append(c.starts, c.total)
		c.total += p.Length()
	}
	return c
}

// PoseAt implements Centerline.
func (c *Composite) PoseAt(s float64) geom.Pose {
	i := c.pieceAt(s)
	return c.pieces[i].PoseAt(s - c.starts[i])
}

// Project implements Centerline. Each piece projects the point; the
// piece whose projection (clamped to the piece extent) is nearest wins.
func (c *Composite) Project(p geom.Vec2) (s, d float64) {
	best := math.Inf(1)
	for i, piece := range c.pieces {
		ps, pd := piece.Project(p)
		clamped := math.Max(0, math.Min(piece.Length(), ps))
		ref := piece.PoseAt(clamped)
		dist := ref.Pos.Dist(p)
		// Prefer in-range projections; out-of-range ones only stand in
		// when nothing covers the point.
		if ps < -1e-9 || ps > piece.Length()+1e-9 {
			dist += 1e3
		}
		if dist < best {
			best = dist
			s = c.starts[i] + ps
			d = pd
		}
	}
	return s, d
}

// Length implements Centerline.
func (c *Composite) Length() float64 { return c.total }

func (c *Composite) pieceAt(s float64) int {
	for i := len(c.pieces) - 1; i > 0; i-- {
		if s >= c.starts[i] {
			return i
		}
	}
	return 0
}

// Road is a multi-lane road: a reference centerline (the centerline of
// lane 0, the rightmost lane) and NumLanes parallel lanes of LaneWidth
// meters each, extending to the left.
type Road struct {
	Ref       Centerline
	LaneWidth float64
	NumLanes  int

	// Lazily-compiled fast evaluation tables for the Ref shapes this
	// package defines (see fast.go). Built on first query; produces
	// bit-identical results, so it is invisible to callers. Roads must
	// be shared by pointer once queried (vet's copylocks check enforces
	// this via the Once).
	fastOnce sync.Once
	fast     fastRef
}

// DefaultLaneWidth is a typical US highway lane width in meters.
const DefaultLaneWidth = 3.5

// NewStraight builds a straight road with the given number of lanes
// starting at the origin heading +X.
func NewStraight(numLanes int, length float64) *Road {
	return &Road{
		Ref:       Line{Start: geom.Pose{}, Len: length},
		LaneWidth: DefaultLaneWidth,
		NumLanes:  numLanes,
	}
}

// NewCurved builds a road that runs straight for leadIn meters and then
// follows a constant-radius curve (positive radius turns left) for
// arcLen meters. This matches the paper's "challenging cut-in on a
// curved road" setting.
func NewCurved(numLanes int, leadIn, radius, arcLen float64) *Road {
	line := Line{Start: geom.Pose{}, Len: leadIn}
	arc := Arc{Start: line.PoseAt(leadIn), Curv: 1 / radius, Len: arcLen}
	return &Road{
		Ref:       NewComposite(line, arc),
		LaneWidth: DefaultLaneWidth,
		NumLanes:  numLanes,
	}
}

// LaneCenterOffset returns the reference-line offset of the center of
// the given lane.
func (r *Road) LaneCenterOffset(lane int) float64 { return float64(lane) * r.LaneWidth }

// PoseAtOffset returns the world pose at station s and lateral offset d
// (left positive). The heading follows the reference tangent.
func (r *Road) PoseAtOffset(s, d float64) geom.Pose {
	if f := r.fastOf(); f.ok {
		return f.poseAtOffset(s, d)
	}
	ref := r.Ref.PoseAt(s)
	return geom.Pose{Pos: ref.Pos.Add(ref.Left().Scale(d)), Heading: ref.Heading}
}

// Frenet returns the station and offset of a world point.
func (r *Road) Frenet(p geom.Vec2) (s, d float64) {
	if f := r.fastOf(); f.ok {
		return f.project(p)
	}
	return r.Ref.Project(p)
}

// TangentAt returns the reference forward direction at station s —
// Ref.PoseAt(s).Forward() without materializing the pose.
func (r *Road) TangentAt(s float64) geom.Vec2 {
	if f := r.fastOf(); f.ok {
		return f.forwardAt(s)
	}
	return r.Ref.PoseAt(s).Forward()
}

// LaneAt returns the lane index containing offset d, clamped to the
// road's lanes. Int conversion truncates toward zero, which agrees
// with Floor for non-negative values; negative ones floor to -1 or
// below and truncate to 0 or below — both clamp to lane 0, so the
// Floor call is skipped without changing any result.
func (r *Road) LaneAt(d float64) int {
	q := d/r.LaneWidth + 0.5
	if q <= 0 {
		return 0
	}
	lane := int(q)
	if lane >= r.NumLanes {
		lane = r.NumLanes - 1
	}
	return lane
}

// InBounds reports whether offset d lies within the paved lanes, with
// the given extra margin on each side.
func (r *Road) InBounds(d, margin float64) bool {
	lo := -r.LaneWidth/2 - margin
	hi := (float64(r.NumLanes)-0.5)*r.LaneWidth + margin
	return d >= lo && d <= hi
}

// Validate reports configuration errors.
func (r *Road) Validate() error {
	if r.NumLanes < 1 {
		return fmt.Errorf("road: NumLanes = %d, need >= 1", r.NumLanes)
	}
	if r.LaneWidth <= 0 {
		return fmt.Errorf("road: LaneWidth = %v, need > 0", r.LaneWidth)
	}
	if r.Ref == nil {
		return fmt.Errorf("road: nil reference centerline")
	}
	return nil
}
