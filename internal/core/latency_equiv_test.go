package core_test

// Frozen-reference equivalence suite for the Zhuyi kernel: the ref*
// functions below are verbatim copies of TolerableLatency and its
// helpers (findConflict, resolveTN, checkConstraints, the trajectory
// sampler) and of world.Trajectory.At as they stood before the
// sampler learned its search hint, its once-per-search ego rotation
// and its position-only threat scan. The live kernel must return an
// identical LatencyResult (==, every field) on every recorded future
// of every registered scenario and on a seeded random corpus that
// covers rotated egos and actors, repeated and irregular sample times,
// empty and one-point trajectories and naive search.
//
// Do not "fix" or modernize the ref functions: their value is that
// they do not change. offline_equiv_test.go cannot catch a kernel
// change: its legacy evaluator calls the live EstimateSnapshot.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/world"
)

func refAt(tr world.Trajectory, t float64) world.TrajectoryPoint {
	n := len(tr.Points)
	if n == 0 {
		return world.TrajectoryPoint{T: t}
	}
	if t <= tr.Points[0].T {
		p := tr.Points[0]
		p.T = t
		return p
	}
	if t >= tr.Points[n-1].T {
		last := tr.Points[n-1]
		dt := t - last.T
		p := last
		p.T = t
		p.Pos = last.Pos.Add(geom.FromAngle(last.Heading).Scale(last.Speed * dt))
		p.Accel = 0
		return p
	}
	i := sort.Search(n, func(i int) bool { return tr.Points[i].T >= t }) // first >= t
	a, b := tr.Points[i-1], tr.Points[i]
	span := b.T - a.T
	if span <= 0 {
		return b
	}
	u := (t - a.T) / span
	return world.TrajectoryPoint{
		T:       t,
		Pos:     a.Pos.Lerp(b.Pos, u),
		Heading: a.Heading + (b.Heading-a.Heading)*u,
		Speed:   a.Speed + (b.Speed-a.Speed)*u,
		Accel:   a.Accel + (b.Accel-a.Accel)*u,
	}
}

func refAlpha(p core.Params, l, l0 float64) float64 {
	switch p.Alpha {
	case core.AlphaZero:
		return 0
	default:
		a := float64(p.K) * (l - l0)
		if a < 0 {
			a = 0
		}
		return a
	}
}

func refBrakeDecel(p core.Params, egoAccel float64) float64 {
	cur := 0.0
	if egoAccel < 0 {
		cur = -egoAccel
	}
	return math.Max(p.C3, p.C4*cur)
}

type refActorSample struct {
	long  float64 // longitudinal position of the actor center, m ahead of ego center
	lat   float64 // lateral offset, m
	speed float64 // actor velocity projected on the ego heading, clamped >= 0
	width float64
	lng   float64 // actor length
}

type refTrajSampler struct {
	traj  *world.Trajectory
	ego   *core.EgoState
	t0    float64
	width float64
	lng   float64
}

func (s *refTrajSampler) sample(tn float64) refActorSample {
	pt := refAt(*s.traj, s.t0+tn)
	local := s.ego.Pose.ToLocal(pt.Pos)
	vAlong := geom.FromAngle(pt.Heading).Scale(pt.Speed).Dot(s.ego.Pose.Forward())
	if vAlong < 0 {
		vAlong = 0
	}
	return refActorSample{long: local.X, lat: local.Y, speed: vAlong, width: s.width, lng: s.lng}
}

// refStart is the frozen world.Trajectory.Start: the first sample
// time, or 0 for an empty trajectory.
func refStart(tr world.Trajectory) float64 {
	if len(tr.Points) == 0 {
		return 0
	}
	return tr.Points[0].T
}

func refTolerableLatency(ego core.EgoState, traj world.Trajectory, actorDims [2]float64, l0 float64, p core.Params) core.LatencyResult {
	res := core.LatencyResult{}
	if len(traj.Points) == 0 {
		return core.LatencyResult{Latency: p.LMax, Feasible: true, NoThreat: true}
	}
	t0 := refStart(traj)
	length, width := actorDims[0], actorDims[1]

	smp := refTrajSampler{traj: &traj, ego: &ego, t0: t0, width: width, lng: length}

	conflictStart, threat := refFindConflict(&smp, ego, p)
	if !threat {
		return core.LatencyResult{Latency: p.LMax, Feasible: true, NoThreat: true}
	}

	ab := refBrakeDecel(p, ego.Accel)
	for l := p.LMax; l >= p.LMin-1e-9; l -= p.DeltaL {
		tr := l + refAlpha(p, l, l0)
		if tn, evals, ok := refResolveTN(ego, &smp, tr, conflictStart, ab, p); ok {
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

func refFindConflict(smp *refTrajSampler, ego core.EgoState, p core.Params) (float64, bool) {
	s0 := smp.sample(0)
	if s0.long < -(ego.Length+s0.lng)/2 {
		return 0, false
	}
	const scanDT = 0.1
	for tn := 0.0; tn <= p.Horizon; tn += scanDT {
		s := smp.sample(tn)
		if math.Abs(s.lat) > (ego.Width+s.width)/2+p.LateralMargin {
			continue
		}
		if s.long < -(ego.Length+s.lng)/2 {
			continue // fully behind the ego
		}
		return tn, true
	}
	return 0, false
}

func refResolveTN(ego core.EgoState, smp *refTrajSampler, tr, conflictStart, ab float64, p core.Params) (float64, int, bool) {
	tn := math.Max(tr, conflictStart)
	iters := p.M
	if p.NaiveSearch {
		iters = int(p.Horizon/p.NaiveDT) + 1
	}
	evals := 0
	for m := 0; m < iters; m++ {
		if tn > p.Horizon {
			return 0, evals, false
		}
		evals++
		ok, gapD, gapV, vEN := refCheckConstraints(ego, smp.sample(tn), tr, tn, ab, p)
		if ok {
			return tn, evals, true
		}
		if gapV <= 1e-9 {
			return 0, evals, false
		}
		var step float64
		if p.NaiveSearch {
			step = p.NaiveDT
		} else {
			step = refEq3Step(gapD, gapV, vEN, ab, p)
			if tn+step > p.Horizon && tn < p.Horizon {
				step = p.Horizon - tn
			}
		}
		tn += step
	}
	return 0, evals, false
}

func refCheckConstraints(ego core.EgoState, a refActorSample, tr, tn, ab float64, p core.Params) (ok bool, gapD, gapV, vEN float64) {
	de1, vETR := refTravelAtConstantAccel(ego.Speed, ego.Accel, tr)

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

func refTravelAtConstantAccel(v0, a, t float64) (dist, vEnd float64) {
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

func refEq3Step(gapD, gapV, vEN, ab float64, p core.Params) float64 {
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

// assertKernelMatches requires the live kernel's result to equal the
// frozen one's, field for field, and returns it.
func assertKernelMatches(t *testing.T, label string, ego core.EgoState, traj world.Trajectory, dims [2]float64, l0 float64, p core.Params) core.LatencyResult {
	t.Helper()
	want := refTolerableLatency(ego, traj, dims, l0, p)
	if got := core.TolerableLatency(ego, traj, dims, l0, p); got != want {
		t.Fatalf("%s: got %+v, want %+v", label, got, want)
	}
	return want
}

// TestTolerableLatencyMatchesFrozenKernelScenarios runs both kernels on
// every actor's recorded future at every 0.1 s instant of every
// registered scenario, at 5 and 30 FPR.
func TestTolerableLatencyMatchesFrozenKernelScenarios(t *testing.T) {
	p := core.DefaultParams()
	scs := scenario.Default().List()
	if len(scs) != 13 {
		t.Fatalf("%d registered scenarios, want the 9 Table-1 scenarios and 4 variants", len(scs))
	}
	for _, sc := range scs {
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			for _, fpr := range []float64{5, 30} {
				res, err := sim.Run(sc.Build(fpr, 1))
				if err != nil {
					t.Fatalf("fpr %g: %v", fpr, err)
				}
				tr := res.Trace
				stride := int(math.Max(1, 0.05/tr.Meta.Dt))
				rowEvery := int(math.Max(1, math.Round(0.1/tr.Meta.Dt)))
				threats := 0
				for i := 0; i < tr.Len(); i += rowEvery {
					row := &tr.Rows[i]
					ego := core.EgoFromAgent(row.Ego)
					for _, a := range row.Actors {
						traj, ok := legacyActorFuture(tr, a.ID, i, p.Horizon, stride)
						if !ok {
							continue
						}
						label := fmt.Sprintf("fpr %g row %d actor %s", fpr, i, a.ID)
						if !assertKernelMatches(t, label, ego, traj, [2]float64{a.Length, a.Width}, 1/fpr, p).NoThreat {
							threats++
						}
					}
				}
				t.Logf("fpr %g: %d threatening futures", fpr, threats)
			}
		})
	}
}

// randomSampleTimes draws n non-decreasing sample times from t0 in one
// of four layouts: the threat scan's own 0.1 s accumulation (so scan
// queries land exactly on samples), a 0.05 s recording grid, irregular
// gaps, and irregular gaps where about a third of the samples repeat
// the previous time.
func randomSampleTimes(rng *rand.Rand, n int, t0 float64) []float64 {
	ts := make([]float64, n)
	layout := rng.Intn(4)
	tn := 0.0
	for k := range ts {
		switch {
		case k == 0:
		case layout == 0:
			tn += 0.1
		case layout == 1:
			tn += 0.05
		case layout == 3 && rng.Intn(3) == 0:
			// repeat the previous time
		default:
			tn += rng.Float64() * 0.4
		}
		ts[k] = t0 + tn
	}
	return ts
}

// randomHeading is zero half the time (the straight-road common case
// and geom.SinCos's shortcut), else any direction.
func randomHeading(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return 0
	}
	return (rng.Float64()*2 - 1) * math.Pi
}

// randomKernelCase draws an ego and an actor trajectory placed around
// the ego's forward corridor, so threats, infeasible latencies and
// no-threat screens all occur.
func randomKernelCase(rng *rand.Rand) (core.EgoState, world.Trajectory, [2]float64, float64, core.Params) {
	ego := core.EgoState{
		Pose:   geom.Pose{Pos: geom.V(rng.Float64()*200-100, rng.Float64()*200-100), Heading: randomHeading(rng)},
		Speed:  rng.Float64() * 35,
		Accel:  rng.Float64()*9 - 6,
		Length: 3.5 + rng.Float64()*2,
		Width:  1.6 + rng.Float64()*0.6,
	}
	var n int
	switch r := rng.Intn(10); {
	case r == 0:
		n = 0
	case r == 1:
		n = 1
	default:
		n = 2 + rng.Intn(300)
	}
	t0 := rng.Float64()*40 - 10
	ts := randomSampleTimes(rng, n, t0)
	fwd, left := ego.Pose.Forward(), ego.Pose.Left()
	pos := ego.Pose.Pos.Add(fwd.Scale(rng.Float64()*140 - 30)).Add(left.Scale(rng.Float64()*12 - 6))
	heading := ego.Pose.Heading + rng.NormFloat64()*0.3
	if rng.Intn(4) == 0 {
		heading = randomHeading(rng)
	}
	speed := rng.Float64() * 30
	accel := rng.Float64()*6 - 4
	pts := make([]world.TrajectoryPoint, n)
	for k, tk := range ts {
		if k > 0 {
			dt := tk - ts[k-1]
			pos = pos.Add(geom.FromAngle(heading).Scale(speed * dt))
			if dt == 0 {
				// A repeated time carries a different state.
				pos = pos.Add(geom.V(rng.NormFloat64(), rng.NormFloat64()))
			}
			speed = math.Max(0, speed+accel*dt)
			heading += rng.NormFloat64() * 0.02
		}
		pts[k] = world.TrajectoryPoint{T: tk, Pos: pos, Heading: heading, Speed: speed, Accel: accel}
	}
	traj := world.Trajectory{ActorID: "a", Prob: 1, Points: pts}
	dims := [2]float64{3 + rng.Float64()*10, 1.5 + rng.Float64()*1.5}
	l0 := []float64{0, 1.0 / 30, 0.2, 1}[rng.Intn(4)]
	p := core.DefaultParams()
	if rng.Intn(5) == 0 {
		p.NaiveSearch = true
	}
	if rng.Intn(5) == 0 {
		p.Alpha = core.AlphaZero
	}
	return ego, traj, dims, l0, p
}

// TestTolerableLatencyMatchesFrozenKernelRandom compares both kernels
// on a seeded random corpus.
func TestTolerableLatencyMatchesFrozenKernelRandom(t *testing.T) {
	cases := 20000
	if testing.Short() {
		cases = 2000
	}
	rng := rand.New(rand.NewSource(18))
	var threats, infeasible, naive int
	for c := 0; c < cases; c++ {
		ego, traj, dims, l0, p := randomKernelCase(rng)
		want := assertKernelMatches(t, fmt.Sprintf("case %d", c), ego, traj, dims, l0, p)
		if !want.NoThreat {
			threats++
		}
		if !want.Feasible {
			infeasible++
		}
		if p.NaiveSearch {
			naive++
		}
	}
	t.Logf("%d cases: %d threats, %d infeasible, %d naive", cases, threats, infeasible, naive)
	if threats < cases/10 || infeasible == 0 || naive == 0 {
		t.Fatalf("corpus too tame: %d threats, %d infeasible, %d naive of %d", threats, infeasible, naive, cases)
	}
}

// TestTrajectorySamplerMatchesFrozenAt queries the kernel's sampler,
// world.Sampler, at times before, inside and after the samples, in
// search order and in random order, and requires the frozen
// world.Trajectory.At's exact values from both At and Pos.
func TestTrajectorySamplerMatchesFrozenAt(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for c := 0; c < 5000; c++ {
		_, traj, _, _, _ := randomKernelCase(rng)
		start, end := refStart(traj), 0.0
		if n := len(traj.Points); n > 0 {
			end = traj.Points[n-1].T
		}
		qs := make([]float64, 64)
		for k := range qs {
			switch rng.Intn(4) {
			case 0: // exactly on a sample, repeated times included
				if len(traj.Points) == 0 {
					qs[k] = rng.NormFloat64()
					break
				}
				qs[k] = traj.Points[rng.Intn(len(traj.Points))].T
			case 1: // before the first sample or after the last
				qs[k] = start - 1 + rng.Float64()*(end-start+2)
			default:
				qs[k] = start + rng.Float64()*(end-start)
			}
		}
		if c%2 == 0 {
			sort.Float64s(qs)
		}
		full, pos := world.Sampler{Points: traj.Points}, world.Sampler{Points: traj.Points}
		for k, q := range qs {
			want := refAt(traj, q)
			if got, gotPos := full.At(q), pos.Pos(q); got != want || gotPos != want.Pos {
				t.Fatalf("case %d query %d (t=%v): got %+v / %+v, want %+v", c, k, q, got, gotPos, want)
			}
		}
	}
}
