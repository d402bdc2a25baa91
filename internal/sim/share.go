package sim

import (
	"math"

	"repro/internal/geom"
	"repro/internal/sensor"
	"repro/internal/trace"
	"repro/internal/vehicle"
	"repro/internal/world"
)

// stepShare is the compute-once context of one simulation instant: the
// ground-truth frame, the ego footprint, the collision/min-gap sweep
// results, the updated camera cone table, the occlusion memo, and the
// per-camera visibility index lists. Everything in it is a pure
// function of the instant's kinematic state and the static scenario
// geometry. Each quantity is derived on first demand within a step and
// read by every later stage that needs it — the cameras due at one
// instant share one cone update and one occlusion memo.
type stepShare struct {
	groundOK bool
	frame    *world.Frame
	egoAgent world.Agent // ego ground truth; the Simulation's copy carries the applied Accel

	collOK    bool
	collided  bool
	collActor string

	gapOK      bool
	stepMinGap float64 // min candidate bumper gap this instant (+Inf if none)

	egoQuadOK bool
	egoQuad   geom.Quad

	cones   *sensor.RigCones
	conesOK bool // cones updated to this step's ego pose

	occ   sensor.OcclusionCache
	vis   [][]int // per camera: visible frame indices
	visOK []bool

	// Per-actor scatter memo: the Frenet state each frame column was
	// last materialized from. The column values are a pure function of
	// that state (plus the run-constant road, ID, and params), so a
	// bitwise-unchanged state means the column already holds exactly
	// what ScatterTo would write — stationary obstacles and stopped
	// vehicles skip the pose evaluation entirely. Unlike the per-instant
	// memos above, this one survives beginStep: frame columns persist
	// across steps.
	prevState []vehicle.FrenetState
	prevOK    []bool
}

func newStepShare(rig sensor.Rig, nActors int) *stepShare {
	sh := &stepShare{
		frame:     world.NewFrame(nActors),
		cones:     sensor.NewRigCones(rig),
		vis:       make([][]int, len(rig)),
		visOK:     make([]bool, len(rig)),
		prevState: make([]vehicle.FrenetState, nActors),
		prevOK:    make([]bool, nActors),
	}
	for i := range sh.vis {
		sh.vis[i] = make([]int, 0, nActors)
	}
	return sh
}

// beginStep invalidates every per-instant memo for a new step.
func (sh *stepShare) beginStep(nActors int) {
	sh.groundOK = false
	sh.collOK = false
	sh.gapOK = false
	sh.egoQuadOK = false
	sh.conesOK = false
	for i := range sh.visOK {
		sh.visOK[i] = false
	}
	sh.occ.Reset(nActors)
}

// ensureGround materializes the instant's ground truth from s's state.
func (sh *stepShare) ensureGround(s *Simulation) {
	if sh.groundOK {
		return
	}
	for i := range s.actors {
		a := &s.actors[i]
		if sh.prevOK[i] && sameStateBits(&sh.prevState[i], &a.state) {
			continue
		}
		a.state.ScatterTo(sh.frame, i, s.cfg.Road, a.spec.ID, a.spec.Params)
		sh.prevState[i] = a.state
		sh.prevOK[i] = true
	}
	s.egoState.FillAgent(&sh.egoAgent, s.cfg.Road, world.EgoID, s.cfg.EgoParams)
	sh.groundOK = true
}

// sameStateBits compares two Frenet states bit for bit. Bitwise (not
// ==) so -0.0 vs +0.0 and NaNs conservatively re-scatter: identical
// bits are the exact precondition for reusing a pure function's output.
func sameStateBits(a, b *vehicle.FrenetState) bool {
	return math.Float64bits(a.S) == math.Float64bits(b.S) &&
		math.Float64bits(a.D) == math.Float64bits(b.D) &&
		math.Float64bits(a.Speed) == math.Float64bits(b.Speed) &&
		math.Float64bits(a.Accel) == math.Float64bits(b.Accel) &&
		math.Float64bits(a.LatVel) == math.Float64bits(b.LatVel)
}

func (sh *stepShare) ensureEgoQuad() *geom.Quad {
	if !sh.egoQuadOK {
		sh.egoQuad = geom.MakeQuad(sh.egoAgent.BBox())
		sh.egoQuadOK = true
	}
	return &sh.egoQuad
}

// ensureCollision runs the collision sweep once per instant: a
// bounding-circle pre-filter (precomputed footprint half-diagonals
// plus a rounding margin) skips the exact quad intersection for
// actors that provably cannot touch the ego; the detected collisions
// are exactly those of the plain OBB sweep.
func (sh *stepShare) ensureCollision(egoDiag float64) {
	if sh.collOK {
		return
	}
	sh.collided = false
	sh.collActor = ""
	f := sh.frame
	ex, ey := sh.egoAgent.Pose.Pos.X, sh.egoAgent.Pose.Pos.Y
	for i := 0; i < f.Len(); i++ {
		dx := f.X[i] - ex
		dy := f.Y[i] - ey
		reach := egoDiag + f.Radius[i]
		if dx*dx+dy*dy > reach*reach {
			continue
		}
		if sh.ensureEgoQuad().Intersects(f.Quad(i)) {
			sh.collided = true
			sh.collActor = f.IDs[i]
			break
		}
	}
	sh.collOK = true
}

// ensureMinGap computes this instant's closest-approach candidate: the
// minimum bumper gap over the actors within the ego's lateral
// corridor (min is associative, so folding this per-instant minimum
// into the run's running minimum is bit-identical to a per-actor
// update).
//
// The road projection is skipped for actors whose own lane-relative
// state puts them far outside the corridor: each actor was posed at
// PoseAtOffset(S, D), so projecting its position back yields d ≈ D —
// off by sub-millimeter rounding for the analytic centerlines while
// the actor is within the road's station extent. A 1 m margin on the
// 2.2 m corridor test (a thousand times the worst-case round-trip
// error, and small enough that whole-lane offsets still skip) cannot
// change which actors pass it; actors beyond the road ends (where a
// composite's nearest piece can reassign d) always take the exact
// projection.
func (sh *stepShare) ensureMinGap(s *Simulation) {
	if sh.gapOK {
		return
	}
	rd := s.cfg.Road
	egoS, egoD := s.egoState.S, s.egoState.D
	egoLength := s.egoAgent.Length
	roadLen := rd.Ref.Length()
	minGap := math.Inf(1)
	f := sh.frame
	for i := 0; i < f.Len(); i++ {
		st := &s.actors[i].state
		if st.S >= 0 && st.S <= roadLen && math.Abs(st.D-egoD) > 2.2+1.0 {
			continue
		}
		as, d := rd.Frenet(geom.Vec2{X: f.X[i], Y: f.Y[i]})
		if math.Abs(d-egoD) > 2.2 {
			continue
		}
		gap := math.Abs(as-egoS) - (egoLength+f.Length[i])/2
		if gap < minGap {
			minGap = gap
		}
	}
	sh.stepMinGap = minGap
	sh.gapOK = true
}

// ensureCones updates the cone table to this instant's ego pose (one
// shared SinCos for the whole rig).
func (sh *stepShare) ensureCones() *sensor.RigCones {
	if !sh.conesOK {
		sh.cones.Update(sh.egoAgent.Pose)
		sh.conesOK = true
	}
	return sh.cones
}

// visibleIdx returns the frame indices camera ci sees this instant,
// computing them on first demand: each camera's list materializes
// only at the instants its frame schedule makes it due.
func (sh *stepShare) visibleIdx(ci int) []int {
	if !sh.visOK[ci] {
		rc := sh.ensureCones()
		sh.vis[ci] = rc.AppendVisibleIdx(sh.vis[ci][:0], ci, sh.frame, &sh.occ)
		sh.visOK[ci] = true
	}
	return sh.vis[ci]
}

// collision materializes the sweep result as a trace record.
func (sh *stepShare) collision(t float64) *trace.Collision {
	if !sh.collided {
		return nil
	}
	return &trace.Collision{Time: t, ActorID: sh.collActor}
}
