package behavior

import (
	"math"
	"testing"

	"repro/internal/road"
	"repro/internal/vehicle"
)

const dt = 0.01

func ctxAt(t float64, r *road.Road, ego vehicle.FrenetState) *Context {
	return &Context{Time: t, Road: r, Ego: ego}
}

func runScript(sc *Script, st vehicle.FrenetState, ego vehicle.FrenetState, seconds float64, r *road.Road) vehicle.FrenetState {
	for t := 0.0; t < seconds; t += dt {
		egoNow := ego
		egoNow.S += ego.Speed * t
		st = sc.Step(ctxAt(t, r, egoNow), st, dt)
	}
	return st
}

// finished reports whether every stage of sc has completed.
func finished(sc *Script) bool { return sc.idx >= len(sc.Stages) }

func TestTriggers(t *testing.T) {
	r := road.NewStraight(3, 2000)
	st := vehicle.FrenetState{S: 100, Speed: 20}
	ego := vehicle.FrenetState{S: 50, Speed: 25}

	if !Immediately()(ctxAt(0, r, ego), st) {
		t.Error("Immediately should fire")
	}
	if AtTime(5)(ctxAt(4.9, r, ego), st) {
		t.Error("AtTime fired early")
	}
	if !AtTime(5)(ctxAt(5, r, ego), st) {
		t.Error("AtTime did not fire")
	}
	// Actor leads ego by 50 m.
	if WhenGapToEgoBelow(40)(ctxAt(0, r, ego), st) {
		t.Error("gap trigger fired early")
	}
	if !WhenGapToEgoBelow(50)(ctxAt(0, r, ego), st) {
		t.Error("gap trigger did not fire")
	}
	if !WhenEgoWithin(60)(ctxAt(0, r, ego), st) {
		t.Error("WhenEgoWithin did not fire")
	}
	if WhenEgoWithin(40)(ctxAt(0, r, ego), st) {
		t.Error("WhenEgoWithin fired early")
	}
	if !AtStation(100)(ctxAt(0, r, ego), st) {
		t.Error("AtStation did not fire")
	}
	if AtStation(101)(ctxAt(0, r, ego), st) {
		t.Error("AtStation fired early")
	}
}

func TestBrakeToStopsActor(t *testing.T) {
	r := road.NewStraight(3, 2000)
	sc := NewScript(Stage{When: AtTime(1), Do: &BrakeTo{Target: 0, Decel: 6}})
	st := vehicle.FrenetState{S: 0, Speed: 30}
	st = runScript(sc, st, vehicle.FrenetState{}, 8, r)
	if st.Speed > 1e-9 {
		t.Errorf("speed = %v, want ~0", st.Speed)
	}
	// Cruise 1 s at 30 then brake 30->0 at 6: 30 + 75 = 105 m.
	if math.Abs(st.S-105) > 1.0 {
		t.Errorf("S = %v, want ~105", st.S)
	}
	if !finished(sc) {
		t.Error("script not finished")
	}
}

func TestAccelTo(t *testing.T) {
	r := road.NewStraight(3, 2000)
	sc := NewScript(Stage{When: Immediately(), Do: &AccelTo{Target: 20, Accel: 2}})
	st := vehicle.FrenetState{Speed: 10}
	st = runScript(sc, st, vehicle.FrenetState{}, 6, r)
	if math.Abs(st.Speed-20) > 0.1 {
		t.Errorf("speed = %v, want 20", st.Speed)
	}
}

func TestLaneChangeReachesTargetLane(t *testing.T) {
	r := road.NewStraight(3, 2000)
	sc := NewScript(Stage{When: Immediately(), Do: &LaneChange{TargetLane: 1, Duration: 3}})
	st := vehicle.FrenetState{S: 0, D: 0, Speed: 20}
	st = runScript(sc, st, vehicle.FrenetState{}, 4, r)
	if math.Abs(st.D-3.5) > 0.05 {
		t.Errorf("D = %v, want ~3.5", st.D)
	}
	if !finished(sc) {
		t.Error("script not finished")
	}
}

func TestLaneChangeSmooth(t *testing.T) {
	r := road.NewStraight(3, 2000)
	lc := &LaneChange{TargetLane: 2, Duration: 4}
	sc := NewScript(Stage{When: Immediately(), Do: lc})
	st := vehicle.FrenetState{D: 0, Speed: 20}
	maxLatVel := 0.0
	prevD := st.D
	for clock := 0.0; clock < 4.5; clock += dt {
		st = sc.Step(ctxAt(clock, r, vehicle.FrenetState{}), st, dt)
		if v := math.Abs(st.LatVel); v > maxLatVel {
			maxLatVel = v
		}
		if st.D < prevD-1e-9 {
			t.Fatalf("lateral motion reversed at t=%v", clock)
		}
		prevD = st.D
	}
	// Peak lateral velocity of the sinusoidal profile is 2·Δd/T = 3.5 m/s.
	if maxLatVel > 3.6 {
		t.Errorf("max lateral velocity = %v", maxLatVel)
	}
	if maxLatVel < 3.0 {
		t.Errorf("profile too flat: max lateral velocity = %v", maxLatVel)
	}
}

func TestLaneChangeZeroDuration(t *testing.T) {
	r := road.NewStraight(3, 2000)
	sc := NewScript(Stage{When: Immediately(), Do: &LaneChange{TargetLane: 1, Duration: 0}})
	st := vehicle.FrenetState{D: 0, Speed: 20}
	st = sc.Step(ctxAt(0, r, vehicle.FrenetState{}), st, dt)
	if !finished(sc) {
		t.Error("zero-duration lane change should finish immediately")
	}
}

func TestFollowEgoConvergesToGap(t *testing.T) {
	r := road.NewStraight(3, 4000)
	sc := NewScript(Stage{When: Immediately(), Do: &FollowEgo{Gap: 20, MaxAccel: 3, MaxBrake: 6}})
	st := vehicle.FrenetState{S: 0, Speed: 25}
	ego := vehicle.FrenetState{S: 40, Speed: 25}
	for t := 0.0; t < 30; t += dt {
		egoNow := ego
		egoNow.S += ego.Speed * t
		st = sc.Step(ctxAt(t, r, egoNow), st, dt)
	}
	finalEgoS := ego.S + ego.Speed*30
	gap := finalEgoS - st.S
	if math.Abs(gap-20) > 2 {
		t.Errorf("gap = %v, want ~20", gap)
	}
	if math.Abs(st.Speed-25) > 1 {
		t.Errorf("speed = %v, want ~25", st.Speed)
	}
}

func TestMatchBesideTracksEgo(t *testing.T) {
	r := road.NewStraight(3, 4000)
	sc := NewScript(Stage{When: Immediately(), Do: &MatchBeside{OffsetS: 0, MaxAccel: 3, MaxBrake: 6}})
	st := vehicle.FrenetState{S: 30, D: 3.5, Speed: 20}
	ego := vehicle.FrenetState{S: 0, Speed: 22}
	for t := 0.0; t < 30; t += dt {
		egoNow := ego
		egoNow.S += ego.Speed * t
		st = sc.Step(ctxAt(t, r, egoNow), st, dt)
	}
	finalEgoS := ego.Speed * 30
	if math.Abs(st.S-finalEgoS) > 2 {
		t.Errorf("station offset = %v, want ~0", st.S-finalEgoS)
	}
}

func TestScriptSequencing(t *testing.T) {
	r := road.NewStraight(3, 4000)
	// Cut-out choreography: cruise until gap to ego < 30, change lane,
	// then brake to a stop.
	sc := NewScript(
		Stage{When: WhenGapToEgoBelow(30), Do: &LaneChange{TargetLane: 1, Duration: 2}},
		Stage{When: Immediately(), Do: &BrakeTo{Target: 0, Decel: 4}},
	)
	st := vehicle.FrenetState{S: 100, D: 0, Speed: 15}
	ego := vehicle.FrenetState{S: 0, Speed: 25}
	for t := 0.0; t < 30; t += dt {
		egoNow := ego
		egoNow.S += ego.Speed * t
		st = sc.Step(ctxAt(t, r, egoNow), st, dt)
	}
	if math.Abs(st.D-3.5) > 0.05 {
		t.Errorf("D = %v, want 3.5 (lane change completed)", st.D)
	}
	if st.Speed > 1e-9 {
		t.Errorf("speed = %v, want ~0 (braked after lane change)", st.Speed)
	}
}

func TestEmptyScriptCruises(t *testing.T) {
	r := road.NewStraight(3, 2000)
	sc := NewScript()
	st := vehicle.FrenetState{Speed: 20}
	st = runScript(sc, st, vehicle.FrenetState{}, 2, r)
	if math.Abs(st.S-40) > 0.5 || st.Speed != 20 {
		t.Errorf("cruise state = %+v", st)
	}
	if !finished(sc) {
		t.Error("empty script should be finished")
	}
}

func TestDriftTraversesLaterally(t *testing.T) {
	r := road.NewStraight(3, 2000)
	sc := NewScript(Stage{When: AtTime(1), Do: &Drift{LatVel: 1.5, Duration: 4}})
	st := vehicle.FrenetState{S: 0, D: -3, Speed: 1}
	st = runScript(sc, st, vehicle.FrenetState{}, 8, r)
	// 4 s at 1.5 m/s = 6 m of lateral travel.
	if math.Abs(st.D-3) > 0.1 {
		t.Errorf("D = %v, want ~3", st.D)
	}
	if !finished(sc) {
		t.Error("drift not finished")
	}
	if st.LatVel != 0 {
		t.Errorf("lateral velocity %v after drift ended", st.LatVel)
	}
}

// Step is StepInto on a copy, the returning form these tests chain.
func (sc *Script) Step(ctx *Context, st vehicle.FrenetState, dt float64) vehicle.FrenetState {
	sc.StepInto(ctx, &st, dt)
	return st
}
