package planner

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/road"
	"repro/internal/vehicle"
	"repro/internal/world"
)

func setup(desired float64) (*Planner, vehicle.Params) {
	r := road.NewStraight(3, 5000)
	p := vehicle.Car()
	return New(DefaultConfig(desired, p), r), p
}

func perceived(id string, s, d, speed float64) world.Agent {
	return world.Agent{
		ID:     id,
		Pose:   geom.Pose{Pos: geom.V(s, d), Heading: 0},
		Speed:  speed,
		Length: 4.6,
		Width:  1.9,
	}
}

func TestFreeRoadAccelerates(t *testing.T) {
	pl, params := setup(30)
	ego := vehicle.FrenetState{S: 0, D: 3.5, Speed: 20}
	d := pl.Plan(ego, params, nil)
	if d.Accel <= 0 {
		t.Errorf("free road accel = %v, want > 0", d.Accel)
	}
	if d.AEB || d.LeadID != "" {
		t.Errorf("decision = %+v", d)
	}
}

func TestFreeRoadHoldsDesiredSpeed(t *testing.T) {
	pl, params := setup(25)
	ego := vehicle.FrenetState{S: 0, D: 3.5, Speed: 25}
	d := pl.Plan(ego, params, nil)
	if math.Abs(d.Accel) > 0.1 {
		t.Errorf("accel at desired speed = %v, want ~0", d.Accel)
	}
	fast := vehicle.FrenetState{S: 0, D: 3.5, Speed: 30}
	d = pl.Plan(fast, params, nil)
	if d.Accel >= 0 {
		t.Errorf("accel above desired speed = %v, want < 0", d.Accel)
	}
}

func TestFollowsSlowerLead(t *testing.T) {
	pl, params := setup(30)
	ego := vehicle.FrenetState{S: 0, D: 3.5, Speed: 30}
	wm := []world.Agent{perceived("lead", 40, 3.5, 20)}
	d := pl.Plan(ego, params, wm)
	if d.LeadID != "lead" {
		t.Fatalf("lead = %q", d.LeadID)
	}
	if d.Accel >= 0 {
		t.Errorf("accel approaching slower lead = %v, want < 0", d.Accel)
	}
	wantGap := 40.0 - 4.6
	if math.Abs(d.Gap-wantGap) > 1e-9 {
		t.Errorf("gap = %v, want %v", d.Gap, wantGap)
	}
}

func TestIgnoresAdjacentLaneActor(t *testing.T) {
	pl, params := setup(30)
	ego := vehicle.FrenetState{S: 0, D: 3.5, Speed: 30}
	wm := []world.Agent{perceived("side", 30, 7.0, 10)} // one lane left
	d := pl.Plan(ego, params, wm)
	if d.LeadID != "" {
		t.Errorf("adjacent-lane actor selected as lead: %+v", d)
	}
}

func TestIgnoresActorBehind(t *testing.T) {
	pl, params := setup(30)
	ego := vehicle.FrenetState{S: 100, D: 3.5, Speed: 30}
	wm := []world.Agent{perceived("rear", 50, 3.5, 35)}
	d := pl.Plan(ego, params, wm)
	if d.LeadID != "" {
		t.Errorf("rear actor selected as lead: %+v", d)
	}
}

func TestSelectsNearestLead(t *testing.T) {
	pl, params := setup(30)
	ego := vehicle.FrenetState{S: 0, D: 3.5, Speed: 30}
	wm := []world.Agent{
		perceived("far", 90, 3.5, 20),
		perceived("near", 45, 3.5, 20),
	}
	d := pl.Plan(ego, params, wm)
	if d.LeadID != "near" {
		t.Errorf("lead = %q, want near", d.LeadID)
	}
}

func TestAEBTriggersOnStoppedObstacle(t *testing.T) {
	pl, params := setup(30)
	// 30 m/s with a stopped obstacle 50 m ahead: required decel ≈
	// 30²/(2·(50-4.6-2.5)) ≈ 10.5 m/s² — far beyond the trigger.
	ego := vehicle.FrenetState{S: 0, D: 3.5, Speed: 30}
	wm := []world.Agent{perceived("obs", 50, 3.5, 0)}
	d := pl.Plan(ego, params, wm)
	if !d.AEB {
		t.Fatal("AEB not triggered")
	}
	if d.Accel != -params.MaxBrake {
		t.Errorf("AEB accel = %v, want %v", d.Accel, -params.MaxBrake)
	}
}

func TestAEBNotTriggeredWithComfortableGap(t *testing.T) {
	pl, params := setup(30)
	ego := vehicle.FrenetState{S: 0, D: 3.5, Speed: 20}
	wm := []world.Agent{perceived("lead", 150, 3.5, 20)}
	d := pl.Plan(ego, params, wm)
	if d.AEB {
		t.Errorf("AEB with 150 m gap at matched speed: %+v", d)
	}
}

func TestAEBLatchesAndReleases(t *testing.T) {
	pl, params := setup(30)
	ego := vehicle.FrenetState{S: 0, D: 3.5, Speed: 30}
	wm := []world.Agent{perceived("obs", 60, 3.5, 0)}
	d := pl.Plan(ego, params, wm)
	if !d.AEB {
		t.Fatal("AEB not triggered")
	}
	// Even as the required decel dips with a slightly larger gap, the
	// latch holds while the ego is still much faster than the lead.
	egoSlower := vehicle.FrenetState{S: 0, D: 3.5, Speed: 15}
	d = pl.Plan(egoSlower, params, []world.Agent{perceived("obs", 200, 3.5, 14.8)})
	if d.AEB {
		t.Error("AEB did not release after threat cleared")
	}
}

func TestCutInLateralVelocityNotCountedAsClosing(t *testing.T) {
	pl, params := setup(30)
	ego := vehicle.FrenetState{S: 0, D: 3.5, Speed: 25}
	cutIn := perceived("cut", 40, 3.5, 25)
	cutIn.LatVel = -2 // still moving laterally into the lane
	d := pl.Plan(ego, params, []world.Agent{cutIn})
	// Same longitudinal speed: mild reaction, no AEB.
	if d.AEB {
		t.Errorf("AEB on matched-speed cut-in: %+v", d)
	}
}

func TestRequiredDecel(t *testing.T) {
	if got := requiredDecel(20, 20, 50); got != 0 {
		t.Errorf("no excess speed: %v", got)
	}
	if got := requiredDecel(20, 0, 20); math.Abs(got-10) > 1e-9 {
		t.Errorf("stop in 20 m from 20 m/s: %v, want 10", got)
	}
	if got := requiredDecel(20, 0, 0); got < 1e2 {
		t.Errorf("zero distance: %v, want sentinel", got)
	}
	if got := requiredDecel(20, -5, 20); math.Abs(got-10) > 1e-9 {
		t.Errorf("negative lead speed clamps to 0: %v", got)
	}
}

func TestClosedLoopFollowingConverges(t *testing.T) {
	// With perfect perception the IDM must settle behind a steady lead
	// without collision or oscillation.
	pl, params := setup(32)
	r := pl.Road
	_ = r
	ego := vehicle.FrenetState{S: 0, D: 3.5, Speed: 32}
	leadS := 80.0
	leadV := 22.0
	const dt = 0.01
	minGap := math.Inf(1)
	for i := 0; i < 6000; i++ {
		wm := []world.Agent{perceived("lead", leadS, 3.5, leadV)}
		d := pl.Plan(ego, params, wm)
		ego.Accel = params.ClampAccel(d.Accel, ego.Speed)
		ego.StepInPlace(dt)
		leadS += leadV * dt
		gap := leadS - ego.S - 4.6
		if gap < minGap {
			minGap = gap
		}
	}
	if minGap <= 0 {
		t.Fatalf("collision in closed loop: min gap %v", minGap)
	}
	finalGap := leadS - ego.S - 4.6
	wantGap := 2.5 + leadV*1.4 // s0 + v·T
	if math.Abs(finalGap-wantGap) > 6 {
		t.Errorf("settled gap = %v, want ~%v", finalGap, wantGap)
	}
	if math.Abs(ego.Speed-leadV) > 1 {
		t.Errorf("settled speed = %v, want ~%v", ego.Speed, leadV)
	}
}
