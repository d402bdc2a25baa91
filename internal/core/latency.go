package core

import (
	"math"

	"repro/internal/geom"
	"repro/internal/world"
)

// EgoState is the ego information the Zhuyi model consumes at t0: the
// current pose, longitudinal speed and acceleration, and the footprint
// dimensions used for bumper-to-bumper gap computation.
type EgoState struct {
	Pose   geom.Pose
	Speed  float64 // m/s
	Accel  float64 // m/s², negative = braking
	Length float64 // m
	Width  float64 // m
}

// EgoFromAgent converts a world agent.
func EgoFromAgent(a world.Agent) EgoState {
	return EgoState{Pose: a.Pose, Speed: a.Speed, Accel: a.Accel, Length: a.Length, Width: a.Width}
}

// LatencyResult is the outcome of the per-trajectory tolerable-latency
// search (§2.1).
type LatencyResult struct {
	Latency  float64 // maximum tolerable latency, s (LMax if no threat)
	Feasible bool    // false: even LMin admits a collision (unavoidable)
	NoThreat bool    // trajectory never conflicts with the ego corridor
	TN       float64 // resolution time t_n at which both constraints held, s from t0
	Evals    int     // constraint evaluations performed (compute accounting)
}

// actorSample is the actor state at a candidate t_n, expressed in the
// ego frame at t0.
type actorSample struct {
	long  float64 // longitudinal position of the actor center, m ahead of ego center
	lat   float64 // lateral offset, m
	speed float64 // actor velocity projected on the ego heading, clamped >= 0
	width float64
	lng   float64 // actor length
}

// trajSampler evaluates a trajectory at candidate resolution times in
// the ego frame at t0. A plain struct (not a closure) so the latency
// search keeps it on the stack — the serving tier's pooled /v1/rate
// path requires the whole search to run without heap allocation.
//
// The ego's frame rotation and heading vector are computed once per
// search rather than once per sample, with the same expressions as
// geom.Pose.ToLocal and geom.Pose.Forward, so samples are bit-identical
// to theirs; traj keeps its search hint across the search's samples.
type trajSampler struct {
	traj     world.Sampler // non-empty
	t0       float64
	origin   geom.Vec2 // ego position at t0
	sin, cos float64   // geom.SinCos(-ego heading): the world-to-ego rotation
	fwd      geom.Vec2 // ego heading unit vector
	width    float64
	lng      float64
}

func newTrajSampler(pts []world.TrajectoryPoint, ego *EgoState, length, width float64) trajSampler {
	s := trajSampler{traj: world.Sampler{Points: pts}, t0: pts[0].T, origin: ego.Pose.Pos, fwd: ego.Pose.Forward(), width: width, lng: length}
	s.sin, s.cos = geom.SinCos(-ego.Pose.Heading)
	return s
}

// toLocal is geom.Pose.ToLocal for the ego pose at t0.
func (s *trajSampler) toLocal(p geom.Vec2) geom.Vec2 {
	d := p.Sub(s.origin)
	return geom.Vec2{X: d.X*s.cos - d.Y*s.sin, Y: d.X*s.sin + d.Y*s.cos}
}

// local returns the actor's ego-frame position at t0+tn: all the
// threat screen needs.
func (s *trajSampler) local(tn float64) geom.Vec2 {
	return s.toLocal(s.traj.Pos(s.t0 + tn))
}

func (s *trajSampler) sample(tn float64) actorSample {
	pt := s.traj.At(s.t0 + tn)
	local := s.toLocal(pt.Pos)
	vAlong := geom.FromAngle(pt.Heading).Scale(pt.Speed).Dot(s.fwd)
	if vAlong < 0 {
		vAlong = 0
	}
	return actorSample{long: local.X, lat: local.Y, speed: vAlong, width: s.width, lng: s.lng}
}

// TolerableLatency runs the paper's §2.1 search: the largest candidate
// latency l (descending from LMax by DeltaL) for which some resolution
// time t_n ≥ t_r = l + α exists where both Eq. 1 (distance) and Eq. 2
// (velocity) hold. l0 is the system's current processing latency.
//
// A trajectory that never enters the ego's forward corridor within the
// horizon cannot collide, so it returns LMax with NoThreat set — this is
// the "determine if a collision is possible" step of §2.1 and is what
// keeps harmless adjacent-lane actors from demanding high rates.
func TolerableLatency(ego EgoState, traj world.Trajectory, actorDims [2]float64, l0 float64, p Params) LatencyResult {
	res := LatencyResult{}
	if len(traj.Points) == 0 {
		return LatencyResult{Latency: p.LMax, Feasible: true, NoThreat: true}
	}
	smp := newTrajSampler(traj.Points, &ego, actorDims[0], actorDims[1])

	// Threat screening: does the trajectory ever occupy the ego's
	// forward corridor within the horizon?
	conflictStart, threat := findConflict(&smp, ego, p)
	if !threat {
		return LatencyResult{Latency: p.LMax, Feasible: true, NoThreat: true}
	}

	ab := p.brakeDecel(ego.Accel)
	for l := p.LMax; l >= p.LMin-1e-9; l -= p.DeltaL {
		tr := l + p.alpha(l, l0)
		if tn, evals, ok := resolveTN(ego, &smp, tr, conflictStart, ab, p); ok {
			res.Evals += evals
			res.Latency = l
			res.Feasible = true
			res.TN = tn
			return res
		} else {
			res.Evals += evals
		}
	}
	res.Feasible = false
	res.Latency = 0
	return res
}

// findConflict scans the trajectory for the earliest time the actor
// occupies the ego's forward corridor. Actors currently behind the ego
// are never frontal threats: the hard-braking safety procedure (§2.1)
// cannot prevent rear-end collisions, and responsibility for them rests
// with the rear actor (the RSS convention); the paper's scenarios with
// rear actors accordingly report the idle estimate of 1 FPR.
func findConflict(smp *trajSampler, ego EgoState, p Params) (float64, bool) {
	if smp.local(0).X < -(ego.Length+smp.lng)/2 {
		return 0, false
	}
	const scanDT = 0.1
	for tn := 0.0; tn <= p.Horizon; tn += scanDT {
		l := smp.local(tn)
		if math.Abs(l.Y) > (ego.Width+smp.width)/2+p.LateralMargin {
			continue
		}
		if l.X < -(ego.Length+smp.lng)/2 {
			continue // fully behind the ego
		}
		return tn, true
	}
	return 0, false
}

// resolveTN searches for a resolution time t_n ≥ max(t_r, conflictStart)
// satisfying both constraints, using the Eq.-3 accelerated stepping (or
// naive stepping when configured). It returns the t_n found, the number
// of constraint evaluations, and whether the search succeeded.
//
// The search advances t_n only while the velocity constraint is unmet
// (the ego is still shedding speed toward C2·v_an). The first t_n where
// the velocity constraint holds is the closest approach: if the distance
// constraint fails there, the candidate latency admits an overlap and is
// rejected rather than re-checked at later, looser times — a receding
// actor would otherwise reopen the distance budget after a transient
// collision and produce a false pass.
func resolveTN(ego EgoState, smp *trajSampler, tr, conflictStart, ab float64, p Params) (float64, int, bool) {
	tn := math.Max(tr, conflictStart)
	iters := p.M
	if p.NaiveSearch {
		// Naive mode steps by NaiveDT; allow enough iterations to sweep
		// the whole horizon, as the paper's unoptimized variant would.
		iters = int(p.Horizon/p.NaiveDT) + 1
	}
	evals := 0
	for m := 0; m < iters; m++ {
		if tn > p.Horizon {
			return 0, evals, false
		}
		evals++
		ok, gapD, gapV, vEN := checkConstraints(ego, smp.sample(tn), tr, tn, ab, p)
		if ok {
			return tn, evals, true
		}
		if gapV <= 1e-9 {
			// Velocity satisfied but distance violated at the closest
			// approach: this latency admits a collision.
			return 0, evals, false
		}
		var step float64
		if p.NaiveSearch {
			step = p.NaiveDT
		} else {
			step = eq3Step(gapD, gapV, vEN, ab, p)
			// Don't jump past the horizon while a feasible edge check
			// remains.
			if tn+step > p.Horizon && tn < p.Horizon {
				step = p.Horizon - tn
			}
		}
		tn += step
	}
	return 0, evals, false
}

// checkConstraints evaluates Eq. 1 and Eq. 2 at t_n for reaction time
// t_r, returning the distance margin gapD = C1·s_n − d_e1 − d_e2 (≥ 0 is
// satisfied), the velocity excess gapV = v_en − C2·v_an (≤ 0 is
// satisfied), and v_en.
func checkConstraints(ego EgoState, a actorSample, tr, tn, ab float64, p Params) (ok bool, gapD, gapV, vEN float64) {
	de1, vETR := travelAtConstantAccel(ego.Speed, ego.Accel, tr)

	tb := tn - tr
	if tb < 0 {
		tb = 0
	}
	vEN = vETR - ab*tb
	if vEN < 0 {
		vEN = 0
	}
	de2 := (vETR*vETR - vEN*vEN) / (2 * ab)

	sn := a.long - (ego.Length+a.lng)/2 - p.DistanceMargin
	vAN := a.speed - p.SpeedMargin
	if vAN < 0 {
		vAN = 0
	}
	gapD = p.C1*sn - de1 - de2
	gapV = vEN - p.C2*vAN
	ok = gapD >= 0 && gapV <= 1e-9
	return ok, gapD, gapV, vEN
}

// travelAtConstantAccel integrates distance and final speed over t
// seconds with the ego's current acceleration held (per §2.1: "During
// t_r, we assume the ego's acceleration is unchanged"), clamping at a
// full stop.
func travelAtConstantAccel(v0, a, t float64) (dist, vEnd float64) {
	if t <= 0 {
		return 0, v0
	}
	if a < 0 {
		tStop := v0 / -a
		if t >= tStop {
			return v0 * tStop / 2, 0
		}
	}
	vEnd = v0 + a*t
	if vEnd < 0 {
		vEnd = 0
	}
	dist = (v0 + vEnd) / 2 * t
	return dist, vEnd
}

// eq3Step is the paper's Equation 3: the t'_n adjustment derived from
// the unmet constraint(s). The caller only invokes it while the velocity
// constraint is unmet (gapV > 0): the step is the remaining braking time
// gapV/a_b, or — when the distance constraint is also violated — the
// smaller of that and the distance-recovery time (Eq. 3's min case). It
// never steps by less than NaiveDT so the search always progresses.
func eq3Step(gapD, gapV, vEN, ab float64, p Params) float64 {
	step := gapV / ab
	if gapD < 0 {
		dtD := (vEN + math.Sqrt(vEN*vEN+2*ab*math.Abs(gapD))) / ab
		step = math.Min(step, dtD)
	}
	if step < p.NaiveDT {
		step = p.NaiveDT
	}
	return step
}
