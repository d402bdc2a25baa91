package road

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

const tol = 1e-9

func TestLinePoseAndProject(t *testing.T) {
	l := Line{Start: geom.Pose{Pos: geom.V(0, 0), Heading: 0}, Len: 100}
	p := l.PoseAt(10)
	if p.Pos != geom.V(10, 0) || p.Heading != 0 {
		t.Errorf("PoseAt(10) = %+v", p)
	}
	s, d := l.Project(geom.V(25, 3))
	if s != 25 || d != 3 {
		t.Errorf("Project = %v, %v", s, d)
	}
}

func TestLineRotated(t *testing.T) {
	l := Line{Start: geom.Pose{Pos: geom.V(1, 1), Heading: math.Pi / 2}, Len: 50}
	p := l.PoseAt(5)
	if math.Abs(p.Pos.X-1) > tol || math.Abs(p.Pos.Y-6) > tol {
		t.Errorf("PoseAt = %+v", p)
	}
	s, d := l.Project(geom.V(0, 6))
	if math.Abs(s-5) > tol || math.Abs(d-1) > tol {
		t.Errorf("Project = %v, %v", s, d)
	}
}

func TestArcLeftTurn(t *testing.T) {
	// Radius 100 left turn from origin heading +X: quarter circle ends at
	// (100, 100) heading +Y.
	a := Arc{Start: geom.Pose{}, Curv: 1.0 / 100, Len: math.Pi * 50}
	end := a.PoseAt(math.Pi * 50)
	if math.Abs(end.Pos.X-100) > 1e-6 || math.Abs(end.Pos.Y-100) > 1e-6 {
		t.Errorf("end pos = %v", end.Pos)
	}
	if math.Abs(end.Heading-math.Pi/2) > 1e-9 {
		t.Errorf("end heading = %v", end.Heading)
	}
}

func TestArcRightTurn(t *testing.T) {
	a := Arc{Start: geom.Pose{}, Curv: -1.0 / 100, Len: math.Pi * 50}
	end := a.PoseAt(math.Pi * 50)
	if math.Abs(end.Pos.X-100) > 1e-6 || math.Abs(end.Pos.Y+100) > 1e-6 {
		t.Errorf("end pos = %v", end.Pos)
	}
	if math.Abs(end.Heading+math.Pi/2) > 1e-9 {
		t.Errorf("end heading = %v", end.Heading)
	}
}

func TestArcProjectRoundTrip(t *testing.T) {
	for _, curv := range []float64{1.0 / 100, -1.0 / 100, 1.0 / 300, -1.0 / 300} {
		a := Arc{Start: geom.Pose{Pos: geom.V(5, -3), Heading: 0.3}, Curv: curv, Len: 200}
		for _, s := range []float64{0, 10, 50, 150, 199} {
			for _, d := range []float64{-3, 0, 2.5} {
				ref := a.PoseAt(s)
				p := ref.Pos.Add(ref.Left().Scale(d))
				gs, gd := a.Project(p)
				if math.Abs(gs-s) > 1e-6 || math.Abs(gd-d) > 1e-6 {
					t.Errorf("curv %v: Project(PoseAt(%v)+%v·left) = %v, %v", curv, s, d, gs, gd)
				}
			}
		}
	}
}

func TestArcProjectQuick(t *testing.T) {
	a := Arc{Start: geom.Pose{}, Curv: 1.0 / 250, Len: 400}
	f := func(rawS, rawD float64) bool {
		if math.IsNaN(rawS) || math.IsNaN(rawD) {
			return true
		}
		s := math.Mod(math.Abs(rawS), 400)
		d := math.Mod(rawD, 5)
		ref := a.PoseAt(s)
		p := ref.Pos.Add(ref.Left().Scale(d))
		gs, gd := a.Project(p)
		return math.Abs(gs-s) < 1e-6 && math.Abs(gd-d) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompositeContinuity(t *testing.T) {
	r := NewCurved(3, 100, 300, 400)
	// Walk the centerline; consecutive poses must be close (continuity).
	prev := r.Ref.PoseAt(0)
	for s := 1.0; s <= 480; s += 1 {
		cur := r.Ref.PoseAt(s)
		if cur.Pos.Dist(prev.Pos) > 1.5 {
			t.Fatalf("discontinuity at s=%v: %v -> %v", s, prev.Pos, cur.Pos)
		}
		prev = cur
	}
	if got := r.Ref.Length(); math.Abs(got-500) > tol {
		t.Errorf("Length = %v", got)
	}
	// The heading holds until s=100, then turns at 1/300 rad per meter.
	if got := r.Ref.PoseAt(50).Heading; got != 0 {
		t.Errorf("heading at 50 = %v", got)
	}
	if got := r.Ref.PoseAt(150).Heading; math.Abs(got-50.0/300) > tol {
		t.Errorf("heading at 150 = %v", got)
	}
}

func TestCompositeProjectRoundTrip(t *testing.T) {
	r := NewCurved(3, 100, 300, 400)
	for _, s := range []float64{5, 50, 99, 101, 200, 450} {
		for _, d := range []float64{0, 3.5, 7} {
			p := r.PoseAtOffset(s, d)
			gs, gd := r.Frenet(p.Pos)
			if math.Abs(gs-s) > 1e-6 || math.Abs(gd-d) > 1e-6 {
				t.Errorf("Frenet(PoseAtOffset(%v,%v)) = %v, %v", s, d, gs, gd)
			}
		}
	}
}

func TestRoadLanes(t *testing.T) {
	r := NewStraight(3, 1000)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := r.LaneCenterOffset(0); got != 0 {
		t.Errorf("lane 0 offset = %v", got)
	}
	if got := r.LaneCenterOffset(2); got != 7 {
		t.Errorf("lane 2 offset = %v", got)
	}
	if got := r.LaneAt(0); got != 0 {
		t.Errorf("LaneAt(0) = %v", got)
	}
	if got := r.LaneAt(3.5); got != 1 {
		t.Errorf("LaneAt(3.5) = %v", got)
	}
	if got := r.LaneAt(5.0); got != 1 {
		t.Errorf("LaneAt(5.0) = %v", got)
	}
	if got := r.LaneAt(-10); got != 0 {
		t.Errorf("LaneAt(-10) = %v", got)
	}
	if got := r.LaneAt(100); got != 2 {
		t.Errorf("LaneAt(100) = %v", got)
	}
}

func TestRoadPoseAt(t *testing.T) {
	r := NewStraight(3, 1000)
	p := r.PoseAtOffset(50, r.LaneCenterOffset(1))
	if math.Abs(p.Pos.X-50) > tol || math.Abs(p.Pos.Y-3.5) > tol {
		t.Errorf("PoseAt = %+v", p)
	}
}

func TestRoadInBounds(t *testing.T) {
	r := NewStraight(3, 1000)
	cases := []struct {
		d, margin float64
		want      bool
	}{
		{0, 0, true},
		{7, 0, true},
		{8.74, 0, true},
		{8.8, 0, false},
		{-1.74, 0, true},
		{-1.8, 0, false},
		{-2.2, 0.5, true},
	}
	for i, c := range cases {
		if got := r.InBounds(c.d, c.margin); got != c.want {
			t.Errorf("case %d: InBounds(%v,%v) = %v, want %v", i, c.d, c.margin, got, c.want)
		}
	}
}

func TestRoadValidate(t *testing.T) {
	if err := (&Road{NumLanes: 0, LaneWidth: 3.5, Ref: Line{Len: 1}}).Validate(); err == nil {
		t.Error("want error for zero lanes")
	}
	if err := (&Road{NumLanes: 3, LaneWidth: 0, Ref: Line{Len: 1}}).Validate(); err == nil {
		t.Error("want error for zero lane width")
	}
	if err := (&Road{NumLanes: 3, LaneWidth: 3.5}).Validate(); err == nil {
		t.Error("want error for nil ref")
	}
}

func TestCurvedRoadLaneGeometry(t *testing.T) {
	// On a left curve, the left lane (higher index) has a smaller turn
	// radius, so a fixed arc station spans it correctly via PoseAtOffset.
	r := NewCurved(3, 0, 200, 300)
	inner := r.PoseAtOffset(150, r.LaneCenterOffset(2)) // leftmost lane on a left turn = inner lane
	outer := r.PoseAtOffset(150, r.LaneCenterOffset(0))
	ci := geom.V(0, 200) // curve center for radius-200 left turn from origin
	if math.Abs(inner.Pos.Dist(ci)-193) > 1e-6 {
		t.Errorf("inner radius = %v", inner.Pos.Dist(ci))
	}
	if math.Abs(outer.Pos.Dist(ci)-200) > 1e-6 {
		t.Errorf("outer radius = %v", outer.Pos.Dist(ci))
	}
}
