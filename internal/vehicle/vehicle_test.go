package vehicle

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/road"
)

func TestPresetsSane(t *testing.T) {
	for _, p := range []Params{Car(), Truck()} {
		if p.Length <= 0 || p.Width <= 0 || p.MaxAccel <= 0 || p.MaxBrake <= 0 || p.MaxSpeed <= 0 {
			t.Errorf("non-positive preset field: %+v", p)
		}
		if p.ComfortBrake >= p.MaxBrake {
			t.Errorf("comfort brake >= max brake: %+v", p)
		}
	}
	s := StaticObstacle()
	if s.Length <= 0 || s.Width <= 0 {
		t.Errorf("static obstacle dims: %+v", s)
	}
}

func TestStepConstantSpeed(t *testing.T) {
	f := FrenetState{S: 0, Speed: 10}
	f = f.Step(2)
	if math.Abs(f.S-20) > 1e-9 || f.Speed != 10 {
		t.Errorf("Step = %+v", f)
	}
}

func TestStepAcceleration(t *testing.T) {
	f := FrenetState{Speed: 10, Accel: 2}
	f = f.Step(1)
	if math.Abs(f.S-11) > 1e-9 || math.Abs(f.Speed-12) > 1e-9 {
		t.Errorf("Step = %+v", f)
	}
}

func TestStepStopsAtZero(t *testing.T) {
	f := FrenetState{Speed: 5, Accel: -10}
	f = f.Step(1) // would reach -5 m/s without clamping
	if f.Speed != 0 {
		t.Errorf("Speed = %v, want 0", f.Speed)
	}
	// Distance to stop from 5 m/s at 10 m/s² is 1.25 m.
	if math.Abs(f.S-1.25) > 1e-9 {
		t.Errorf("S = %v, want 1.25", f.S)
	}
	// Further steps do not move the vehicle.
	f2 := f.Step(1)
	if f2.S != f.S || f2.Speed != 0 {
		t.Errorf("stopped vehicle moved: %+v", f2)
	}
}

func TestStepLateral(t *testing.T) {
	f := FrenetState{Speed: 10, LatVel: 0.5}
	f = f.Step(2)
	if math.Abs(f.D-1) > 1e-9 {
		t.Errorf("D = %v", f.D)
	}
}

func TestStepNonNegativeSpeedQuick(t *testing.T) {
	fn := func(v0, a, dt float64) bool {
		if math.IsNaN(v0) || math.IsNaN(a) || math.IsNaN(dt) {
			return true
		}
		v0 = math.Mod(math.Abs(v0), 60)
		a = math.Mod(a, 10)
		dt = math.Mod(math.Abs(dt), 1)
		f := FrenetState{Speed: v0, Accel: a}.Step(dt)
		return f.Speed >= 0 && f.S >= -1e-9
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestStepZeroOrNegativeDT(t *testing.T) {
	f := FrenetState{S: 5, Speed: 10}
	if got := f.Step(0); got != f {
		t.Errorf("Step(0) = %+v", got)
	}
	if got := f.Step(-1); got != f {
		t.Errorf("Step(-1) = %+v", got)
	}
}

func TestToAgent(t *testing.T) {
	r := road.NewStraight(3, 1000)
	f := FrenetState{S: 50, D: 3.5, Speed: 20, Accel: -1}
	a := f.ToAgent(r, "ego", Car())
	if a.ID != "ego" || a.Lane != 1 {
		t.Errorf("agent = %+v", a)
	}
	if math.Abs(a.Pose.Pos.X-50) > 1e-9 || math.Abs(a.Pose.Pos.Y-3.5) > 1e-9 {
		t.Errorf("pos = %v", a.Pose.Pos)
	}
	if a.Speed != 20 || a.Accel != -1 {
		t.Errorf("kinematics = %+v", a)
	}
	if a.Static {
		t.Error("moving car marked static")
	}
}

func TestToAgentLaneChangeHeading(t *testing.T) {
	r := road.NewStraight(3, 1000)
	f := FrenetState{S: 50, D: 0, Speed: 20, LatVel: 2}
	a := f.ToAgent(r, "a1", Car())
	want := math.Atan2(2, 20)
	if math.Abs(a.Pose.Heading-want) > 1e-9 {
		t.Errorf("heading = %v, want %v", a.Pose.Heading, want)
	}
}

func TestToAgentStatic(t *testing.T) {
	r := road.NewStraight(3, 1000)
	f := FrenetState{S: 120, D: 0}
	a := f.ToAgent(r, "obstacle", StaticObstacle())
	if !a.Static {
		t.Error("static obstacle not marked static")
	}
}

func TestClampAccel(t *testing.T) {
	p := Car()
	if got := p.ClampAccel(10, 20); got != p.MaxAccel {
		t.Errorf("clamp up = %v", got)
	}
	if got := p.ClampAccel(-100, 20); got != -p.MaxBrake {
		t.Errorf("clamp down = %v", got)
	}
	if got := p.ClampAccel(1, p.MaxSpeed+1); got != 0 {
		t.Errorf("accel at max speed = %v", got)
	}
	if got := p.ClampAccel(-1, p.MaxSpeed+1); got != -1 {
		t.Errorf("braking at max speed = %v", got)
	}
}

// Step is StepInPlace on a copy, the returning form these tests chain.
func (f FrenetState) Step(dt float64) FrenetState {
	f.StepInPlace(dt)
	return f
}
