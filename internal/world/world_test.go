package world

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func carAgent(id string, x, y, heading, speed float64) Agent {
	return Agent{
		ID:     id,
		Pose:   geom.Pose{Pos: geom.V(x, y), Heading: heading},
		Speed:  speed,
		Length: 4.6,
		Width:  1.9,
	}
}

func TestAgentBBoxAndBumpers(t *testing.T) {
	a := carAgent("ego", 10, 0, 0, 20)
	b := a.BBox()
	if b.Length != 4.6 || b.Width != 1.9 {
		t.Errorf("BBox dims = %v x %v", b.Length, b.Width)
	}
}

func TestAgentVelocity(t *testing.T) {
	a := carAgent("a", 0, 0, 0, 10)
	a.LatVel = 1
	v := a.Velocity()
	if math.Abs(v.X-10) > 1e-9 || math.Abs(v.Y-1) > 1e-9 {
		t.Errorf("Velocity = %v", v)
	}
	a.Pose.Heading = math.Pi / 2
	v = a.Velocity()
	if math.Abs(v.X+1) > 1e-9 || math.Abs(v.Y-10) > 1e-9 {
		t.Errorf("rotated Velocity = %v", v)
	}
}

func TestAgentValidate(t *testing.T) {
	good := carAgent("a", 0, 0, 0, 10)
	if err := good.Validate(); err != nil {
		t.Errorf("valid agent rejected: %v", err)
	}
	bad := good
	bad.ID = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty ID accepted")
	}
	bad = good
	bad.Speed = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative speed accepted")
	}
	bad = good
	bad.Length = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero length accepted")
	}
	bad = good
	bad.Speed = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Error("NaN speed accepted")
	}
}

func makeTraj() Trajectory {
	return Trajectory{
		ActorID: "a1",
		Prob:    1,
		Points: []TrajectoryPoint{
			{T: 0, Pos: geom.V(0, 0), Heading: 0, Speed: 10, Accel: 0},
			{T: 1, Pos: geom.V(10, 0), Heading: 0, Speed: 10, Accel: 0},
			{T: 2, Pos: geom.V(20, 0), Heading: 0, Speed: 10, Accel: -2},
		},
	}
}

func TestTrajectoryAtInterpolation(t *testing.T) {
	tr := makeTraj()
	p := tr.At(0.5)
	if math.Abs(p.Pos.X-5) > 1e-9 || math.Abs(p.Speed-10) > 1e-9 {
		t.Errorf("At(0.5) = %+v", p)
	}
	p = tr.At(1.5)
	if math.Abs(p.Pos.X-15) > 1e-9 || math.Abs(p.Accel+1) > 1e-9 {
		t.Errorf("At(1.5) = %+v", p)
	}
}

func TestTrajectoryAtEdges(t *testing.T) {
	tr := makeTraj()
	p := tr.At(-1)
	if p.Pos.X != 0 || p.T != -1 {
		t.Errorf("At(-1) = %+v", p)
	}
	// Beyond the end: constant-velocity extrapolation.
	p = tr.At(3)
	if math.Abs(p.Pos.X-30) > 1e-9 || p.Accel != 0 {
		t.Errorf("At(3) = %+v", p)
	}
	empty := Trajectory{}
	if got := empty.At(5); got.T != 5 {
		t.Errorf("empty At = %+v", got)
	}
}

func TestTrajectoryAtMonotone(t *testing.T) {
	tr := makeTraj()
	f := func(raw float64) bool {
		if math.IsNaN(raw) {
			return true
		}
		t1 := math.Mod(math.Abs(raw), 2)
		p1 := tr.At(t1)
		p2 := tr.At(t1 + 0.1)
		return p2.Pos.X >= p1.Pos.X-1e-9 // forward motion is monotone in x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSamplerMatchesAt drives one Sampler forward, then backward, over
// a trajectory with a repeated sample time, and requires At's values:
// the search hint must not change a result.
func TestSamplerMatchesAt(t *testing.T) {
	tr := makeTraj()
	tr.Points = append(tr.Points[:2:2], TrajectoryPoint{T: 1, Pos: geom.V(11, 0), Speed: 9}, tr.Points[2])
	s := Sampler{Points: tr.Points}
	var ts []float64
	for q := -0.5; q <= 2.5; q += 0.25 {
		ts = append(ts, q)
	}
	for k := len(ts) - 1; k >= 0; k-- {
		ts = append(ts, ts[k])
	}
	for _, q := range ts {
		want := tr.At(q)
		if got, pos := s.At(q), s.Pos(q); got != want || pos != want.Pos {
			t.Fatalf("t=%v: At %+v, Pos %v, want %+v", q, got, pos, want)
		}
	}
	var empty Sampler
	if got, pos := empty.At(5), empty.Pos(5); got != (TrajectoryPoint{T: 5}) || pos != (geom.Vec2{}) {
		t.Errorf("empty sampler: At %+v, Pos %v", got, pos)
	}
}

// TestSamplerNonFiniteTime pins what a sampler returns at a NaN or
// infinite query time: NaN and -Inf take the first sample, +Inf
// extrapolates past the last, and neither indexes out of range.
func TestSamplerNonFiniteTime(t *testing.T) {
	tr := makeTraj()
	first := tr.Points[0]
	for _, q := range []float64{math.NaN(), math.Inf(-1)} {
		s := Sampler{Points: tr.Points}
		got, pos := s.At(q), s.Pos(q)
		if pos != first.Pos || got.Pos != first.Pos || got.Speed != first.Speed || !(got.T == q || math.IsNaN(q) && math.IsNaN(got.T)) {
			t.Errorf("t=%v: At %+v, Pos %v, want the first sample %+v", q, got, pos, first)
		}
	}
	s := Sampler{Points: tr.Points}
	if got, pos := s.At(math.Inf(1)), s.Pos(math.Inf(1)); !math.IsInf(got.Pos.X, 1) || !math.IsInf(pos.X, 1) {
		t.Errorf("t=+Inf: At %+v, Pos %v, want extrapolation to +Inf", got, pos)
	}
}

func TestTrajectoryValidate(t *testing.T) {
	tr := makeTraj()
	if err := tr.Validate(); err != nil {
		t.Errorf("valid trajectory rejected: %v", err)
	}
	bad := makeTraj()
	bad.Prob = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("bad probability accepted")
	}
	bad = makeTraj()
	bad.Points[2].T = 0.5
	if err := bad.Validate(); err == nil {
		t.Error("unsorted times accepted")
	}
}

// At is Sampler.At on a fresh sampler, the one-shot form these tests
// compare against.
func (tr Trajectory) At(t float64) TrajectoryPoint {
	s := Sampler{Points: tr.Points}
	return s.At(t)
}
