package sensor

import (
	"math"

	"repro/internal/geom"
	"repro/internal/world"
)

// RigCones is a per-run precomputed view of a camera rig: the
// per-camera constants (mount trigonometry, cos of the half-FOV,
// conservative squared-range and cosine bounds) are computed once at
// construction, and Update rotates every camera axis to the current
// ego pose with a single shared SinCos per step instead of one
// math.Sincos per camera per frame (what NewFrameCone pays).
//
// Every predicate is exactly equivalent to the Camera methods it
// accelerates: the fast point test is a tri-state — certainly seen /
// certainly not / uncertain — whose certainty margins (relative 1e-9,
// absolute 1e-12, versus floating-point errors around 1e-15) are wide
// enough that the uncertain band safely brackets the exact test's
// decision boundary; uncertain points fall through to the unmodified
// Camera.SeesPoint. sensor_equiv_test.go asserts the equivalence on
// randomized scenes.
type RigCones struct {
	rig  Rig
	cams []coneStatic

	// Per-camera world-frame cone axis for the current ego pose.
	axX, axY []float64

	ego     geom.Pose
	haveEgo bool
}

// coneStatic is the ego-independent precomputation for one camera.
type coneStatic struct {
	cam        Camera
	sinM, cosM float64 // Sincos(MountHeading)
	cosHalf    float64 // cos(FOV/2)
	halfPlane  bool    // FOV < π: the behind-the-plane reject is valid
	wedge      bool    // FOV ≤ π (cosHalf ≥ 0): squared wedge tests valid

	rngInSq, rngOutSq float64 // certainly-within / certainly-beyond Range²
	cosInSq, cosOutSq float64 // squared certainty bounds on cos(angle off axis)
	cosOut            float64
}

const (
	coneRelMargin = 1e-9
	coneAbsMargin = 1e-12
	// tinySq guards Camera.SeesPoint's dist < 1e-9 always-visible
	// special case: closer points are left to the exact test.
	coneTinySq = 4e-18
)

// NewRigCones precomputes the rig's cone constants for a run.
func NewRigCones(rig Rig) *RigCones {
	rc := &RigCones{
		rig:  rig,
		cams: make([]coneStatic, len(rig)),
		axX:  make([]float64, len(rig)),
		axY:  make([]float64, len(rig)),
	}
	for i, c := range rig {
		sinM, cosM := math.Sincos(c.MountHeading)
		cosHalf := math.Cos(c.FOV / 2)
		r2 := c.Range * c.Range
		cosIn := cosHalf*(1+coneRelMargin) + coneAbsMargin
		cosOut := cosHalf*(1-coneRelMargin) - coneAbsMargin
		rc.cams[i] = coneStatic{
			cam:       c,
			sinM:      sinM,
			cosM:      cosM,
			cosHalf:   cosHalf,
			halfPlane: c.FOV < math.Pi,
			wedge:     cosHalf >= 0,
			rngInSq:   r2 * (1 - coneRelMargin),
			rngOutSq:  r2 * (1 + coneRelMargin),
			cosInSq:   cosIn * cosIn,
			cosOutSq:  cosOut * cosOut,
			cosOut:    cosOut,
		}
	}
	return rc
}

// Rig returns the rig the table was built for.
func (rc *RigCones) Rig() Rig { return rc.rig }

// Update rotates the camera axes to the given ego pose. It memoizes
// on pose equality, so all cameras pay one SinCos per step.
func (rc *RigCones) Update(ego geom.Pose) {
	if rc.haveEgo && rc.ego == ego {
		return
	}
	rc.ego = ego
	rc.haveEgo = true
	sinH, cosH := geom.SinCos(ego.Heading)
	for i := range rc.cams {
		cs := &rc.cams[i]
		// Angle-addition instead of Sincos(heading+mount); the few-ulp
		// difference from NewFrameCone's axis is absorbed by the
		// conservative margins (the axis only feeds certainty tests).
		rc.axX[i] = cosH*cs.cosM - sinH*cs.sinM
		rc.axY[i] = sinH*cs.cosM + cosH*cs.sinM
	}
}

// seesPointTri classifies a world point against camera ci's cone:
// +1 certainly visible, -1 certainly not, 0 undecided (caller must run
// the exact Camera.SeesPoint).
func (rc *RigCones) seesPointTri(ci int, px, py float64) int {
	cs := &rc.cams[ci]
	dx := px - rc.ego.Pos.X
	dy := py - rc.ego.Pos.Y
	d2 := dx*dx + dy*dy
	if d2 > cs.rngOutSq {
		return -1
	}
	if d2 < coneTinySq || d2 > cs.rngInSq || !cs.wedge {
		return 0
	}
	t := dx*rc.axX[ci] + dy*rc.axY[ci]
	if t >= 0 {
		t2 := t * t
		if t2 >= d2*cs.cosInSq {
			return 1
		}
		if cs.cosOut > 0 && t2 <= d2*cs.cosOutSq {
			return -1
		}
		return 0
	}
	// Behind the 90° plane; out unless the FOV reaches (within margin) π.
	if cs.cosHalf > coneRelMargin {
		return -1
	}
	return 0
}

// seesPoint resolves the tri-state with the exact fallback.
func (rc *RigCones) seesPoint(ci int, px, py float64) bool {
	switch rc.seesPointTri(ci, px, py) {
	case 1:
		return true
	case -1:
		return false
	}
	return rc.cams[ci].cam.SeesPoint(rc.ego, geom.Vec2{X: px, Y: py})
}

// rejectAgent conservatively reports that no sampled point of an agent
// at (cx,cy) with the given footprint radius bound can pass the cone
// test — cameraReject on the precomputed axis.
func (rc *RigCones) rejectAgent(ci int, cx, cy, radius float64) bool {
	cs := &rc.cams[ci]
	dx := cx - rc.ego.Pos.X
	dy := cy - rc.ego.Pos.Y
	reach := cs.cam.Range + radius
	if dx*dx+dy*dy > reach*reach {
		return true
	}
	if cs.halfPlane && dx*rc.axX[ci]+dy*rc.axY[ci] < -radius {
		return true
	}
	return false
}

// SeesAgentFrame reports whether camera ci sees frame agent i —
// exactly Camera.SeesAgent on the materialized agent, via the cached
// trigonometry and the tri-state point tests.
func (rc *RigCones) SeesAgentFrame(ci int, f *world.Frame, i int) bool {
	cx, cy := f.X[i], f.Y[i]
	if rc.rejectAgent(ci, cx, cy, f.Radius[i]) {
		return false
	}
	return rc.seesSamples(ci, cx, cy, f.SinH[i], f.CosH[i], f.Length[i], &f.Quad(i).C)
}

// SeesAgentAt reports whether camera ci sees the agent (typically a
// coasted track estimate, not part of the ground-truth frame) —
// exactly CannotSee-prefiltered Camera.SeesAgent.
func (rc *RigCones) SeesAgentAt(ci int, a *world.Agent) bool {
	radius := world.FootprintRadiusBound(a.Length, a.Width)
	cx, cy := a.Pose.Pos.X, a.Pose.Pos.Y
	if rc.rejectAgent(ci, cx, cy, radius) {
		return false
	}
	sin, cos := geom.SinCos(a.Pose.Heading)
	q := geom.MakeQuadTrig(a.BBox(), sin, cos)
	return rc.seesSamples(ci, cx, cy, sin, cos, a.Length, &q.C)
}

// seesSamples runs the any-point cone membership over the agent's
// salient points (center, bumpers, corners — SeesAgent's sample set,
// computed with the identical arithmetic).
func (rc *RigCones) seesSamples(ci int, cx, cy, sin, cos, length float64, corners *[4]geom.Vec2) bool {
	if rc.seesPoint(ci, cx, cy) {
		return true
	}
	hl := length / 2
	bx, by := cos*hl, sin*hl
	if rc.seesPoint(ci, cx+bx, cy+by) || rc.seesPoint(ci, cx-bx, cy-by) {
		return true
	}
	for k := 0; k < 4; k++ {
		if rc.seesPoint(ci, corners[k].X, corners[k].Y) {
			return true
		}
	}
	return false
}

// OcclusionCache memoizes per-actor occlusion for one instant.
// Occlusion is camera-independent — a function of the ego position and
// the ground-truth scene — so one computation serves every camera of
// the rig.
type OcclusionCache struct {
	state []int8 // 0 unknown, 1 occluded, 2 clear
}

// Reset invalidates the cache for a new instant with n actors.
func (oc *OcclusionCache) Reset(n int) {
	if cap(oc.state) < n {
		oc.state = make([]int8, n)
		return
	}
	oc.state = oc.state[:n]
	for i := range oc.state {
		oc.state[i] = 0
	}
}

// OccludedFrame reports whether frame agent i is occluded from the ego
// position by the other frame agents — exactly Occluded on the
// materialized agents. oc may be nil to skip memoization.
func OccludedFrame(egoPos geom.Vec2, f *world.Frame, i int, oc *OcclusionCache) bool {
	if oc != nil && oc.state[i] != 0 {
		return oc.state[i] == 1
	}
	occ := occludedFrame(egoPos, f, i)
	if oc != nil {
		if occ {
			oc.state[i] = 1
		} else {
			oc.state[i] = 2
		}
	}
	return occ
}

func occludedFrame(egoPos geom.Vec2, f *world.Frame, i int) bool {
	// Sight rays to the center and both side mid-edges (sightRays on
	// the cached trigonometry).
	cx, cy := f.X[i], f.Y[i]
	hw := f.Width[i] / 2
	qx, qy := (-f.SinH[i])*hw, f.CosH[i]*hw
	rays := [3]geom.Segment{
		{A: egoPos, B: geom.Vec2{X: cx, Y: cy}},
		{A: egoPos, B: geom.Vec2{X: cx + qx, Y: cy + qy}},
		{A: egoPos, B: geom.Vec2{X: cx - qx, Y: cy - qy}},
	}
	for _, ray := range rays {
		blocked := false
		for j := 0; j < f.Len(); j++ {
			if j == i {
				continue
			}
			// Bounding-circle prefilter: the footprint lies within
			// Radius of the center, so a ray farther than that cannot
			// touch it; borderline cases fall through to the exact test.
			r := f.Radius[j]
			if ray.DistSqToPoint(geom.Vec2{X: f.X[j], Y: f.Y[j]}) > r*r {
				continue
			}
			if f.Quad(j).HitBy(ray) {
				blocked = true
				break
			}
		}
		if !blocked {
			return false
		}
	}
	return true
}

// AppendVisibleIdx appends the frame indices of the actors camera ci
// sees (cone membership plus occlusion), in frame order — exactly the
// set and order AppendVisible produces on the materialized agents.
func (rc *RigCones) AppendVisibleIdx(dst []int, ci int, f *world.Frame, oc *OcclusionCache) []int {
	for i := 0; i < f.Len(); i++ {
		if !rc.SeesAgentFrame(ci, f, i) {
			continue
		}
		if OccludedFrame(rc.ego.Pos, f, i, oc) {
			continue
		}
		dst = append(dst, i)
	}
	return dst
}
