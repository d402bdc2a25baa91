package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/world"
)

var carDims = [2]float64{4.6, 1.9}

// egoAt builds an ego state heading +X at the origin.
func egoAt(speed, accel float64) EgoState {
	return EgoState{
		Pose:   geom.Pose{Pos: geom.V(0, 0), Heading: 0},
		Speed:  speed,
		Accel:  accel,
		Length: 4.6,
		Width:  1.9,
	}
}

// straightTraj builds a trajectory for an actor moving along +X at a
// constant acceleration, starting at (x, y) with the given speed.
func straightTraj(x, y, speed, accel, horizon float64) world.Trajectory {
	var pts []world.TrajectoryPoint
	pos := x
	v := speed
	const dt = 0.05
	for t := 0.0; t <= horizon; t += dt {
		pts = append(pts, world.TrajectoryPoint{T: t, Pos: geom.V(pos, y), Heading: 0, Speed: v, Accel: accel})
		nv := v + accel*dt
		if nv < 0 {
			nv = 0
		}
		pos += (v + nv) / 2 * dt
		v = nv
	}
	return world.Trajectory{ActorID: "a", Prob: 1, Points: pts}
}

func staticTraj(x, y, horizon float64) world.Trajectory {
	return straightTraj(x, y, 0, 0, horizon)
}

func TestNoThreatAdjacentLaneParallel(t *testing.T) {
	// A parallel actor one lane over never conflicts: tolerable latency
	// is the maximum (FPR 1) regardless of relative speed. This is what
	// keeps side cameras at 1000 ms in the paper's Figure 6.
	p := DefaultParams()
	ego := egoAt(30, 0)
	traj := straightTraj(5, 3.5, 10, 0, p.Horizon)
	res := TolerableLatency(ego, traj, carDims, 0.033, p)
	if !res.NoThreat {
		t.Fatal("adjacent-lane actor flagged as threat")
	}
	if res.Latency != p.LMax || !res.Feasible {
		t.Errorf("latency = %v, feasible = %v", res.Latency, res.Feasible)
	}
}

func TestNoThreatBehindEgo(t *testing.T) {
	p := DefaultParams()
	ego := egoAt(20, 0)
	traj := straightTraj(-40, 0, 15, 0, p.Horizon) // same lane, behind, slower
	res := TolerableLatency(ego, traj, carDims, 0.033, p)
	if !res.NoThreat {
		t.Error("receding rear actor flagged as threat")
	}
}

func TestFarStaticObstacleTolerant(t *testing.T) {
	// A stopped obstacle 150 m ahead at moderate speed: plenty of time,
	// max latency is tolerable.
	p := DefaultParams()
	ego := egoAt(15, 0)
	res := TolerableLatency(ego, staticTraj(150, 0, p.Horizon), carDims, 0.033, p)
	if !res.Feasible {
		t.Fatal("infeasible")
	}
	if res.Latency != p.LMax {
		t.Errorf("latency = %v, want LMax", res.Latency)
	}
}

func TestCloseStaticObstacleDemandsLowLatency(t *testing.T) {
	// 30 m/s toward a stopped obstacle 75 m ahead: braking distance at
	// C3 = 4.9 is ~92 m, leaving little reaction margin even with the
	// paper's conservatism factors.
	p := DefaultParams()
	ego := egoAt(30, 0)
	res := TolerableLatency(ego, staticTraj(75, 0, p.Horizon), carDims, 0.033, p)
	if res.Feasible && res.Latency >= 0.5 {
		t.Errorf("latency = %v, want < 0.5 s or infeasible", res.Latency)
	}
}

func TestLatencyMonotoneInDistance(t *testing.T) {
	// Tolerable latency must not decrease as the obstacle moves farther.
	p := DefaultParams()
	ego := egoAt(25, 0)
	prev := -1.0
	for _, dist := range []float64{60, 80, 100, 130, 170, 220} {
		res := TolerableLatency(ego, staticTraj(dist, 0, p.Horizon), carDims, 0.033, p)
		l := res.Latency
		if !res.Feasible {
			l = -0.5
		}
		if l < prev-1e-9 {
			t.Fatalf("latency decreased with distance: %v after %v (dist %v)", l, prev, dist)
		}
		prev = l
	}
}

func TestLatencyMonotoneInSpeed(t *testing.T) {
	// Faster ego, same obstacle: tolerable latency must not increase.
	p := DefaultParams()
	prev := math.Inf(1)
	for _, v := range []float64{5, 10, 15, 20, 25, 30, 35} {
		res := TolerableLatency(egoAt(v, 0), staticTraj(120, 0, p.Horizon), carDims, 0.033, p)
		l := res.Latency
		if !res.Feasible {
			l = -0.5
		}
		if l > prev+1e-9 {
			t.Fatalf("latency increased with speed: %v after %v (v=%v)", l, prev, v)
		}
		prev = l
	}
}

func TestUnavoidableCollision(t *testing.T) {
	// 35 m/s with a stopped obstacle 20 m ahead: no reaction time helps.
	p := DefaultParams()
	res := TolerableLatency(egoAt(35, 0), staticTraj(20, 0, p.Horizon), carDims, 0.033, p)
	if res.Feasible {
		t.Errorf("feasible with latency %v, want unavoidable", res.Latency)
	}
}

func TestMatchedSpeedFollowing(t *testing.T) {
	// Following a lead at identical speed 50 m ahead: the velocity
	// constraint requires braking below C2·v_a, which hard braking
	// achieves quickly; distance is ample, so latency should be high.
	p := DefaultParams()
	res := TolerableLatency(egoAt(25, 0), straightTraj(50+4.6, 0, 25, 0, p.Horizon), carDims, 0.033, p)
	if !res.Feasible {
		t.Fatal("infeasible")
	}
	if res.Latency < 0.3 {
		t.Errorf("latency = %v, want >= 0.3", res.Latency)
	}
}

func TestBrakingLeadTightensLatency(t *testing.T) {
	p := DefaultParams()
	cruising := TolerableLatency(egoAt(30, 0), straightTraj(45, 0, 30, 0, p.Horizon), carDims, 0.033, p)
	braking := TolerableLatency(egoAt(30, 0), straightTraj(45, 0, 30, -6, p.Horizon), carDims, 0.033, p)
	lc := cruising.Latency
	if !cruising.Feasible {
		lc = 0
	}
	lb := braking.Latency
	if !braking.Feasible {
		lb = 0
	}
	if lb >= lc {
		t.Errorf("braking lead latency %v not tighter than cruising %v", lb, lc)
	}
}

func TestEgoDecelerationRaisesBrakeBudget(t *testing.T) {
	// With the ego already decelerating hard, a_b = C4·|a0| > C3 shortens
	// d_e2, so the tolerable latency should not get worse than when
	// cruising at the same speed.
	p := DefaultParams()
	cruise := TolerableLatency(egoAt(28, 0), staticTraj(95, 0, p.Horizon), carDims, 0.033, p)
	braking := TolerableLatency(egoAt(28, -6), staticTraj(95, 0, p.Horizon), carDims, 0.033, p)
	if !braking.Feasible {
		t.Fatal("braking case infeasible")
	}
	lc := cruise.Latency
	if !cruise.Feasible {
		lc = 0
	}
	if braking.Latency < lc {
		t.Errorf("braking ego latency %v worse than cruising %v", braking.Latency, lc)
	}
}

func TestAlphaModelTrend(t *testing.T) {
	// The paper's Table 1 shows estimated FPR growing as the tested
	// (run) FPR grows, driven by α = K·(l − l0): a larger l0 (slower
	// system) shrinks the reaction time for the same candidate latency.
	p := DefaultParams()
	ego := egoAt(22, 0)
	traj := staticTraj(100, 0, p.Horizon)
	atL0 := func(l0 float64) float64 {
		res := TolerableLatency(ego, traj, carDims, l0, p)
		if !res.Feasible {
			return 0
		}
		return res.Latency
	}
	fast := atL0(1.0 / 30) // run at 30 FPR
	slow := atL0(1.0 / 2)  // run at 2 FPR
	if !(slow >= fast) {
		t.Errorf("latency at l0=500ms (%v) should be >= latency at l0=33ms (%v)", slow, fast)
	}
	// And with AlphaZero the l0 dependence disappears.
	p.Alpha = AlphaZero
	if a, b := atL0(1.0/30), atL0(1.0/2); a != b {
		t.Errorf("AlphaZero results differ: %v vs %v", a, b)
	}
}

func TestCutInTrajectoryThreat(t *testing.T) {
	// An actor that starts one lane over and merges in front of the ego
	// must be recognized as a threat (not filtered by the lateral
	// screen).
	p := DefaultParams()
	ego := egoAt(27, 0)
	var pts []world.TrajectoryPoint
	for t := 0.0; t <= p.Horizon; t += 0.1 {
		y := 3.5
		if t > 1 {
			y = math.Max(0, 3.5-(t-1)*2)
		}
		pts = append(pts, world.TrajectoryPoint{T: t, Pos: geom.V(20+22*t, y), Heading: 0, Speed: 22})
	}
	traj := world.Trajectory{ActorID: "cut", Prob: 1, Points: pts}
	res := TolerableLatency(ego, traj, carDims, 0.033, p)
	if res.NoThreat {
		t.Fatal("cut-in not recognized as threat")
	}
	if res.Feasible && res.Latency > 0.9 {
		t.Errorf("latency = %v, want tighter than 0.9 for a close cut-in", res.Latency)
	}
}

func TestNaiveSearchAgreesWithAccelerated(t *testing.T) {
	// The Eq.-3 stepping is a performance optimization. Because it takes
	// large jumps and gives up after M attempts per candidate latency it
	// may be slightly MORE conservative than exhaustive stepping, but it
	// must never report a higher (more optimistic) tolerable latency,
	// and it must use far fewer constraint evaluations.
	pFast := DefaultParams()
	pNaive := DefaultParams()
	pNaive.NaiveSearch = true
	for _, v := range []float64{10, 20, 30} {
		for _, dist := range []float64{40, 80, 140} {
			for _, va := range []float64{0, 10, 25} {
				traj := straightTraj(dist, 0, va, 0, pFast.Horizon)
				a := TolerableLatency(egoAt(v, 0), traj, carDims, 0.033, pFast)
				b := TolerableLatency(egoAt(v, 0), traj, carDims, 0.033, pNaive)
				la, lb := latencyOrZero(a), latencyOrZero(b)
				if la > lb+1e-9 {
					t.Errorf("v=%v dist=%v va=%v: accelerated (%v) more optimistic than naive (%v)", v, dist, va, la, lb)
				}
				if lb-la > 0.15+1e-9 {
					t.Errorf("v=%v dist=%v va=%v: accelerated (%v) over-conservative vs naive (%v)", v, dist, va, la, lb)
				}
				if a.Evals > b.Evals {
					t.Errorf("v=%v dist=%v va=%v: accelerated used more evals (%d) than naive (%d)", v, dist, va, a.Evals, b.Evals)
				}
			}
		}
	}
}

func TestLatencyGridQuantized(t *testing.T) {
	// Results land on the δl grid.
	p := DefaultParams()
	res := TolerableLatency(egoAt(25, 0), staticTraj(120, 0, p.Horizon), carDims, 0.033, p)
	if !res.Feasible {
		t.Fatal("infeasible")
	}
	steps := (p.LMax - res.Latency) / p.DeltaL
	if math.Abs(steps-math.Round(steps)) > 1e-6 {
		t.Errorf("latency %v not on the grid", res.Latency)
	}
}

func TestEmptyTrajectory(t *testing.T) {
	p := DefaultParams()
	res := TolerableLatency(egoAt(25, 0), world.Trajectory{}, carDims, 0.033, p)
	if !res.NoThreat || res.Latency != p.LMax {
		t.Errorf("empty trajectory: %+v", res)
	}
}

func TestStoppedEgoAlwaysSafe(t *testing.T) {
	p := DefaultParams()
	f := func(rawDist, rawVa float64) bool {
		if math.IsNaN(rawDist) || math.IsNaN(rawVa) {
			return true
		}
		dist := 6 + math.Mod(math.Abs(rawDist), 200)
		va := math.Mod(math.Abs(rawVa), 30)
		res := TolerableLatency(egoAt(0, 0), straightTraj(dist, 0, va, 0, p.Horizon), carDims, 0.033, p)
		return res.Feasible && res.Latency == p.LMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFPRReciprocal(t *testing.T) {
	r := LatencyResult{Latency: 0.2, Feasible: true}
	if got := r.FPR(); math.Abs(got-5) > 1e-9 {
		t.Errorf("FPR = %v", got)
	}
	bad := LatencyResult{Feasible: false}
	if !math.IsInf(bad.FPR(), 1) {
		t.Errorf("infeasible FPR = %v", bad.FPR())
	}
}

func TestTravelAtConstantAccel(t *testing.T) {
	d, v := travelAtConstantAccel(10, 0, 2)
	if d != 20 || v != 10 {
		t.Errorf("constant: %v, %v", d, v)
	}
	d, v = travelAtConstantAccel(10, -5, 4) // stops at t=2 after 10 m
	if math.Abs(d-10) > 1e-9 || v != 0 {
		t.Errorf("stopping: %v, %v", d, v)
	}
	d, v = travelAtConstantAccel(10, 2, 1)
	if math.Abs(d-11) > 1e-9 || math.Abs(v-12) > 1e-9 {
		t.Errorf("accelerating: %v, %v", d, v)
	}
	d, v = travelAtConstantAccel(10, 1, 0)
	if d != 0 || v != 10 {
		t.Errorf("zero time: %v, %v", d, v)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Params){
		func(p *Params) { p.C1 = 0 },
		func(p *Params) { p.C2 = 2 },
		func(p *Params) { p.C3 = -1 },
		func(p *Params) { p.C4 = 0.5 },
		func(p *Params) { p.K = -1 },
		func(p *Params) { p.M = 0 },
		func(p *Params) { p.LMin = 0 },
		func(p *Params) { p.LMax = 0.01 },
		func(p *Params) { p.DeltaL = 0 },
		func(p *Params) { p.Horizon = 0 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestParamsSteps(t *testing.T) {
	p := DefaultParams()
	if got := p.Steps(); got != 30 {
		t.Errorf("Steps = %d, want 30 (1s / 33ms)", got)
	}
	p.DeltaL = 0
	if got := p.Steps(); got != 1 {
		t.Errorf("Steps with zero DeltaL = %d", got)
	}
}

func TestBrakeDecel(t *testing.T) {
	p := DefaultParams()
	if got := p.brakeDecel(0); got != p.C3 {
		t.Errorf("cruising: %v", got)
	}
	if got := p.brakeDecel(2); got != p.C3 {
		t.Errorf("accelerating: %v", got)
	}
	if got := p.brakeDecel(-6); math.Abs(got-6.6) > 1e-9 {
		t.Errorf("braking at 6: %v, want 6.6", got)
	}
	if got := p.brakeDecel(-1); got != p.C3 {
		t.Errorf("light braking: %v, want C3", got)
	}
}

// FPR is the frame processing rate a result implies (Eq. 5's per-actor
// reciprocal), +Inf when infeasible; the tests compare results by it.
func (r LatencyResult) FPR() float64 {
	if !r.Feasible || r.Latency <= 0 {
		return math.Inf(1)
	}
	return 1 / r.Latency
}
