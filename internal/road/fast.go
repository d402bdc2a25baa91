package road

import (
	"math"

	"repro/internal/geom"
)

// This file is the precomputed evaluation engine behind Road.Frenet,
// Road.PoseAtOffset, and Road.TangentAt — the closed-loop hot path's
// three geometry queries (the min-gap sweep and the planner project
// every relevant agent every step; the ground-truth scatter poses every
// actor every step).
//
// The generic Centerline path recomputes loop invariants on every call:
// a Line's forward/left vectors and local-frame rotation are a SinCos
// of its fixed heading, an Arc's center and start radius vector are
// rebuilt from another SinCos, and the Composite loop pays an interface
// dispatch per piece. fastRef hoists all of it into per-piece constants
// built once per road (lazily, behind a sync.Once) and mirrors the
// original arithmetic EXPRESSION FOR EXPRESSION: every precomputed
// value is produced by the same calls the generic path makes
// (geom.SinCos, center(), math.Abs(1/curv)), and the per-query
// operations keep the original order. Results are bit-identical —
// fast_equiv_test.go fuzzes that claim against the generic path — so
// traces, archived stores, and the golden suite are unaffected.
//
// Only the shapes this package defines (Line, Arc, and Composites of
// them) get the fast path; a custom Centerline implementation falls
// back to the interface.

// fastPiece is one precompiled centerline piece.
type fastPiece struct {
	line    bool
	heading float64 // start heading (constant along a line)
	length  float64

	// Line constants.
	startPos       geom.Vec2
	fwd            geom.Vec2 // Pose.Forward(): FromAngle(heading)
	left           geom.Vec2 // Pose.Left(): Forward().Perp()
	sinNeg, cosNeg float64   // SinCos(-heading): ToLocal's rotation

	// Arc constants.
	curv, radius, sign float64
	center, r0         geom.Vec2
}

// fastRef is a precompiled reference centerline.
type fastRef struct {
	ok     bool // recognized shape; false falls back to the interface
	single bool // bare Line/Arc Ref: raw projection, no composite loop
	pieces []fastPiece
	starts []float64 // cumulative start stations (composite only)
}

func compilePiece(c Centerline) (fastPiece, bool) {
	switch p := c.(type) {
	case Line:
		sn, cn := geom.SinCos(-p.Start.Heading)
		return fastPiece{
			line:     true,
			heading:  p.Start.Heading,
			length:   p.Len,
			startPos: p.Start.Pos,
			fwd:      p.Start.Forward(),
			left:     p.Start.Left(),
			sinNeg:   sn,
			cosNeg:   cn,
		}, true
	case Arc:
		center := p.center()
		sign := 1.0
		if p.Curv < 0 {
			sign = -1.0
		}
		return fastPiece{
			heading: p.Start.Heading,
			length:  p.Len,
			curv:    p.Curv,
			radius:  math.Abs(1 / p.Curv),
			sign:    sign,
			center:  center,
			r0:      p.Start.Pos.Sub(center),
		}, true
	default:
		return fastPiece{}, false
	}
}

func compileRef(c Centerline) fastRef {
	if comp, ok := c.(*Composite); ok {
		f := fastRef{pieces: make([]fastPiece, 0, len(comp.pieces)), starts: comp.starts}
		for _, piece := range comp.pieces {
			fp, ok := compilePiece(piece)
			if !ok {
				return fastRef{}
			}
			f.pieces = append(f.pieces, fp)
		}
		f.ok = len(f.pieces) > 0
		return f
	}
	if fp, ok := compilePiece(c); ok {
		return fastRef{ok: true, single: true, pieces: []fastPiece{fp}}
	}
	return fastRef{}
}

// project mirrors Line.Project / Arc.Project on the precompiled
// constants.
func (pc *fastPiece) project(p geom.Vec2) (s, d float64) {
	if pc.line {
		// Start.ToLocal(p) = p.Sub(Start.Pos).Rotate(-heading).
		dx, dy := p.X-pc.startPos.X, p.Y-pc.startPos.Y
		return dx*pc.cosNeg - dy*pc.sinNeg, dx*pc.sinNeg + dy*pc.cosNeg
	}
	u := p.Sub(pc.center)
	theta := math.Atan2(pc.r0.Cross(u), pc.r0.Dot(u))
	return theta / pc.curv, pc.sign * (pc.radius - u.Len())
}

// poseAt mirrors Line.PoseAt / Arc.PoseAt.
func (pc *fastPiece) poseAt(s float64) geom.Pose {
	if pc.line {
		// Start.Pos.Add(Forward().Scale(s)) with Forward precomputed.
		return geom.Pose{
			Pos:     geom.Vec2{X: pc.startPos.X + pc.fwd.X*s, Y: pc.startPos.Y + pc.fwd.Y*s},
			Heading: pc.heading,
		}
	}
	theta := s * pc.curv
	return geom.Pose{Pos: pc.center.Add(pc.r0.Rotate(theta)), Heading: pc.heading + theta}
}

// forwardAt mirrors PoseAt(s).Forward() without materializing the pose.
func (pc *fastPiece) forwardAt(s float64) geom.Vec2 {
	if pc.line {
		return pc.fwd
	}
	return geom.FromAngle(pc.heading + s*pc.curv)
}

// poseAtOffset mirrors Road.PoseAtOffset's body on one piece:
// ref := PoseAt(s); Pose{ref.Pos.Add(ref.Left().Scale(d)), ref.Heading}.
// For a line, ref.Left() is the precomputed Start.Left(); for an arc it
// is FromAngle(ref.Heading).Perp(), exactly as Pose.Left computes it.
func (pc *fastPiece) poseAtOffset(s, d float64) geom.Pose {
	ref := pc.poseAt(s)
	left := pc.left
	if !pc.line {
		left = geom.FromAngle(ref.Heading).Perp()
	}
	return geom.Pose{Pos: ref.Pos.Add(left.Scale(d)), Heading: ref.Heading}
}

// project mirrors Composite.Project (or the raw piece projection for a
// bare Line/Arc reference, which never clamps).
func (f *fastRef) project(p geom.Vec2) (s, d float64) {
	if f.single {
		return f.pieces[0].project(p)
	}
	best := math.Inf(1)
	for i := range f.pieces {
		pc := &f.pieces[i]
		var ps, pd float64
		if pc.line {
			ps, pd = pc.project(p)
		} else {
			// Arc projection, inlined so ‖p−c‖ (needed for the offset
			// anyway) also serves as a lower bound before the expensive
			// Atan2 and the clamp pose's Sincos: every point of the arc
			// lies on its circle, so the point-to-circle distance
			// |‖p−c‖ − R| cannot exceed the point-to-arc candidate
			// distance (and the out-of-range penalty only adds). If the
			// bound already beats best by a margin far above float
			// rounding, this piece cannot win; borderline candidates
			// (within the margin) still evaluate exactly, so the winning
			// piece and the returned (s, d) bits never change.
			u := p.Sub(pc.center)
			uLen := u.Len()
			if bound := math.Abs(uLen - pc.radius); bound >= best+1e-6 {
				continue
			}
			theta := math.Atan2(pc.r0.Cross(u), pc.r0.Dot(u))
			ps = theta / pc.curv
			pd = pc.sign * (pc.radius - uLen)
		}
		clamped := math.Max(0, math.Min(pc.length, ps))
		ref := pc.poseAt(clamped)
		dist := ref.Pos.Dist(p)
		if ps < -1e-9 || ps > pc.length+1e-9 {
			dist += 1e3
		}
		if dist < best {
			best = dist
			s = f.starts[i] + ps
			d = pd
		}
	}
	return s, d
}

// pieceAt mirrors Composite.pieceAt.
func (f *fastRef) pieceAt(s float64) int {
	for i := len(f.pieces) - 1; i > 0; i-- {
		if s >= f.starts[i] {
			return i
		}
	}
	return 0
}

func (f *fastRef) forwardAt(s float64) geom.Vec2 {
	if f.single {
		return f.pieces[0].forwardAt(s)
	}
	i := f.pieceAt(s)
	return f.pieces[i].forwardAt(s - f.starts[i])
}

func (f *fastRef) poseAtOffset(s, d float64) geom.Pose {
	if f.single {
		return f.pieces[0].poseAtOffset(s, d)
	}
	i := f.pieceAt(s)
	return f.pieces[i].poseAtOffset(s-f.starts[i], d)
}

// fastOf returns the road's precompiled reference, building it on
// first use (safe under concurrent readers via the Once).
func (r *Road) fastOf() *fastRef {
	r.fastOnce.Do(func() { r.fast = compileRef(r.Ref) })
	return &r.fast
}
