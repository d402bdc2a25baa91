package geom

import (
	"math"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func vecNear(a, b Vec2, eps float64) bool {
	return math.Abs(a.X-b.X) <= eps && math.Abs(a.Y-b.Y) <= eps
}

func finiteVec(v Vec2) bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) && !math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		math.Abs(v.X) < 1e6 && math.Abs(v.Y) < 1e6
}

func TestVecBasicOps(t *testing.T) {
	a := V(1, 2)
	b := V(3, -1)
	if got := a.Add(b); got != V(4, 1) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V(-2, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 1 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Cross(b); got != -7 {
		t.Errorf("Cross = %v", got)
	}
	if got := V(3, 4).Len(); got != 5 {
		t.Errorf("Len = %v", got)
	}
	if got := V(3, 4).LenSq(); got != 25 {
		t.Errorf("LenSq = %v", got)
	}
	if got := V(0, 0).Dist(V(3, 4)); got != 5 {
		t.Errorf("Dist = %v", got)
	}
}

func TestPerpOrthogonal(t *testing.T) {
	f := func(v Vec2) bool {
		if !finiteVec(v) {
			return true
		}
		return math.Abs(v.Dot(v.Perp())) < 1e-6*math.Max(1, v.LenSq())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRotatePreservesLength(t *testing.T) {
	f := func(v Vec2, rad float64) bool {
		if !finiteVec(v) || math.IsNaN(rad) || math.Abs(rad) > 1e3 {
			return true
		}
		return math.Abs(v.Rotate(rad).Len()-v.Len()) < 1e-6*math.Max(1, v.Len())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRotateKnown(t *testing.T) {
	got := V(1, 0).Rotate(math.Pi / 2)
	if !vecNear(got, V(0, 1), tol) {
		t.Errorf("Rotate(pi/2) = %v", got)
	}
}

func TestAngleFromAngleRoundTrip(t *testing.T) {
	for _, a := range []float64{0, 0.5, -0.5, math.Pi / 2, -math.Pi / 2, 3, -3} {
		got := FromAngle(a).Angle()
		if math.Abs(got-a) > tol {
			t.Errorf("FromAngle(%v).Angle() = %v", a, got)
		}
	}
}

func TestLerp(t *testing.T) {
	a, b := V(0, 0), V(10, 20)
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp 0 = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp 1 = %v", got)
	}
	if got := a.Lerp(b, 0.5); !vecNear(got, V(5, 10), tol) {
		t.Errorf("Lerp 0.5 = %v", got)
	}
}

func TestPoseTransformRoundTrip(t *testing.T) {
	p := Pose{Pos: V(3, -2), Heading: 0.7}
	f := func(v Vec2) bool {
		if !finiteVec(v) {
			return true
		}
		back := p.ToLocal(p.Pos.Add(v.Rotate(p.Heading)))
		return vecNear(back, v, 1e-6*math.Max(1, v.Len()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPoseForwardLeft(t *testing.T) {
	p := Pose{Pos: V(0, 0), Heading: 0}
	if !vecNear(p.Forward(), V(1, 0), tol) {
		t.Errorf("Forward = %v", p.Forward())
	}
	if !vecNear(p.Left(), V(0, 1), tol) {
		t.Errorf("Left = %v", p.Left())
	}
	// World (0, 5) is 5 m ahead of a pose heading +Y.
	p2 := Pose{Pos: V(0, 0), Heading: math.Pi / 2}
	if got := p2.ToLocal(V(0, 5)); !vecNear(got, V(5, 0), tol) {
		t.Errorf("ToLocal = %v", got)
	}
}
