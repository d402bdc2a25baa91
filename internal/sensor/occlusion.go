package sensor

import (
	"math"

	"repro/internal/geom"
	"repro/internal/world"
)

// Occluded reports whether the target agent is hidden from a sensor at
// the ego position by any of the other agents. The paper's Cut-out
// scenario depends on this: a static obstacle is invisible until the
// lead actor cuts out of the lane and "reveals" it.
//
// The model casts sight rays from the sensor to the target's center and
// to both side extremes of its bounding box; the target is occluded only
// if every ray is blocked by some other agent's footprint.
func Occluded(egoPos geom.Vec2, target world.Agent, others []world.Agent) bool {
	rays := sightRays(egoPos, target)
	for _, ray := range rays {
		blocked := false
		for _, o := range others {
			if o.ID == target.ID {
				continue
			}
			if segmentHitsOBB(ray, o.BBox()) {
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

// AppendVisible appends to dst (reusing its backing array) the actors
// the camera sees from the ego pose, honoring occlusion by the other
// actors in the scene. A conservative pre-filter (CannotSee) skips the
// trigonometric cone test for actors that provably cannot be seen; the
// exact test decides the rest.
func AppendVisible(dst []world.Agent, c Camera, ego geom.Pose, actors []world.Agent) []world.Agent {
	cone := NewFrameCone(c, ego)
	for _, a := range actors {
		if cone.CannotSee(a) {
			continue
		}
		if !c.SeesAgent(ego, a) {
			continue
		}
		if Occluded(ego.Pos, a, actors) {
			continue
		}
		dst = append(dst, a)
	}
	return dst
}

// FrameCone is a camera frozen at one ego pose for the duration of a
// frame, with the axis trigonometry precomputed once: the per-frame
// hot paths (visibility filtering, the perception miss sweep) consult
// its conservative pre-filter before paying for the exact cone test.
type FrameCone struct {
	Cam Camera
	Ego geom.Pose

	axX, axY float64 // unit camera axis in world coordinates
}

// NewFrameCone freezes the camera at an ego pose. One Sincos here
// replaces an atan2 per rejected agent.
func NewFrameCone(c Camera, ego geom.Pose) FrameCone {
	axY, axX := math.Sincos(ego.Heading + c.MountHeading)
	return FrameCone{Cam: c, Ego: ego, axX: axX, axY: axY}
}

// CannotSee conservatively reports that SeesAgent is certainly false
// for this agent; when it returns false the exact test must decide.
func (fc *FrameCone) CannotSee(a world.Agent) bool {
	return cameraReject(fc.Cam, fc.Ego, fc.axX, fc.axY, a)
}

// cameraReject reports that no salient point of the agent — center,
// bumpers, or bounding-box corners, all within its footprint radius
// bound of the center — can possibly pass SeesAgent for this camera.
// Two conservative bounds, both strictly looser than the exact test:
// the range bound (closest sampled point still beyond Range) and the
// half-plane bound (every sampled point strictly behind the camera
// plane while the half-FOV is under 90°).
func cameraReject(c Camera, ego geom.Pose, axX, axY float64, a world.Agent) bool {
	dx := a.Pose.Pos.X - ego.Pos.X
	dy := a.Pose.Pos.Y - ego.Pos.Y
	diag := world.FootprintRadiusBound(a.Length, a.Width)
	reach := c.Range + diag
	if dx*dx+dy*dy > reach*reach {
		return true
	}
	if c.FOV < math.Pi {
		// Behind the camera plane by more than the footprint: every
		// sampled point sits at over 90° off-axis, and 90° > FOV/2.
		if dx*axX+dy*axY < -diag {
			return true
		}
	}
	return false
}

func sightRays(from geom.Vec2, target world.Agent) [3]geom.Segment {
	// Side extremes: corners of the box projected perpendicular to the
	// line of sight give the widest visual extent; using the box's left
	// and right mid-edge points is a good, cheap approximation.
	left := target.Pose.Pos.Add(target.Pose.Left().Scale(target.Width / 2))
	right := target.Pose.Pos.Sub(target.Pose.Left().Scale(target.Width / 2))
	return [3]geom.Segment{
		{A: from, B: target.Pose.Pos},
		{A: from, B: left},
		{A: from, B: right},
	}
}

func segmentHitsOBB(s geom.Segment, b geom.OBB) bool {
	if b.Contains(s.A) || b.Contains(s.B) {
		return true
	}
	c := b.Corners()
	for i := 0; i < 4; i++ {
		edge := geom.Segment{A: c[i], B: c[(i+1)%4]}
		if s.Intersects(edge) {
			return true
		}
	}
	return false
}
