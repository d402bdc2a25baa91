package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOBBCorners(t *testing.T) {
	b := OBB{Center: V(0, 0), Heading: 0, Length: 4, Width: 2}
	c := b.Corners()
	want := [4]Vec2{V(2, 1), V(-2, 1), V(-2, -1), V(2, -1)}
	for i := range c {
		if !vecNear(c[i], want[i], tol) {
			t.Errorf("corner %d = %v, want %v", i, c[i], want[i])
		}
	}
}

func TestOBBContains(t *testing.T) {
	b := OBB{Center: V(10, 5), Heading: 0, Length: 4, Width: 2}
	if !b.Contains(V(10, 5)) {
		t.Error("center not contained")
	}
	if !b.Contains(V(12, 6)) {
		t.Error("corner not contained")
	}
	if b.Contains(V(12.1, 5)) {
		t.Error("outside point contained")
	}
	// Rotated box.
	r := OBB{Center: V(0, 0), Heading: math.Pi / 2, Length: 4, Width: 2}
	if !r.Contains(V(0, 2)) {
		t.Error("rotated: front point not contained")
	}
	if r.Contains(V(2, 0)) {
		t.Error("rotated: side point contained")
	}
}

func TestOBBIntersectsAxisAligned(t *testing.T) {
	a := OBB{Center: V(0, 0), Heading: 0, Length: 4, Width: 2}
	cases := []struct {
		b    OBB
		want bool
	}{
		{OBB{Center: V(3, 0), Heading: 0, Length: 4, Width: 2}, true},     // overlapping
		{OBB{Center: V(5, 0), Heading: 0, Length: 4, Width: 2}, false},    // clear gap
		{OBB{Center: V(0, 1.9), Heading: 0, Length: 4, Width: 2}, true},   // lateral overlap
		{OBB{Center: V(0, 2.1), Heading: 0, Length: 4, Width: 2}, false},  // lateral gap
		{OBB{Center: V(4.01, 0), Heading: 0, Length: 4, Width: 2}, false}, // just beyond touch
	}
	for i, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
	}
}

func TestOBBIntersectsRotated(t *testing.T) {
	a := OBB{Center: V(0, 0), Heading: 0, Length: 4, Width: 2}
	// A thin rotated box diagonal through a's corner region.
	b := OBB{Center: V(3, 2), Heading: math.Pi / 4, Length: 6, Width: 0.5}
	if !a.Intersects(b) {
		t.Error("diagonal box should intersect")
	}
	c := OBB{Center: V(5, 4), Heading: math.Pi / 4, Length: 2, Width: 0.5}
	if a.Intersects(c) {
		t.Error("distant diagonal box should not intersect")
	}
	// SAT must catch the case where corners of neither box are inside the
	// other (cross shape).
	d := OBB{Center: V(0, 0), Heading: 0, Length: 10, Width: 0.5}
	e := OBB{Center: V(0, 0), Heading: math.Pi / 2, Length: 10, Width: 0.5}
	if !d.Intersects(e) {
		t.Error("cross shape should intersect")
	}
}

func TestOBBIntersectsSymmetric(t *testing.T) {
	f := func(ax, ay, ah, bx, by, bh float64) bool {
		clamp := func(v, lim float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, lim)
		}
		a := OBB{Center: V(clamp(ax, 20), clamp(ay, 20)), Heading: clamp(ah, math.Pi), Length: 4, Width: 2}
		b := OBB{Center: V(clamp(bx, 20), clamp(by, 20)), Heading: clamp(bh, math.Pi), Length: 5, Width: 2.5}
		return a.Intersects(b) == b.Intersects(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOBBSelfIntersects(t *testing.T) {
	f := func(x, y, h float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(h) ||
			math.Abs(x) > 1e5 || math.Abs(y) > 1e5 || math.Abs(h) > 1e3 {
			return true
		}
		b := OBB{Center: V(x, y), Heading: h, Length: 4.6, Width: 1.9}
		return b.Intersects(b) && b.Contains(b.Center)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSegmentClosest(t *testing.T) {
	s := Segment{A: V(0, 0), B: V(10, 0)}
	if got := s.ClosestParam(V(5, 3)); got != 0.5 {
		t.Errorf("ClosestParam = %v", got)
	}
	if got := s.ClosestParam(V(-5, 0)); got != 0 {
		t.Errorf("ClosestParam before A = %v", got)
	}
	if got := s.ClosestParam(V(20, 0)); got != 1 {
		t.Errorf("ClosestParam after B = %v", got)
	}
	if got := s.DistSqToPoint(V(5, 3)); got != 9 {
		t.Errorf("DistSqToPoint = %v", got)
	}
}

func TestSegmentIntersects(t *testing.T) {
	cases := []struct {
		a, b Segment
		want bool
	}{
		{Segment{V(0, 0), V(10, 0)}, Segment{V(5, -5), V(5, 5)}, true},
		{Segment{V(0, 0), V(10, 0)}, Segment{V(5, 1), V(5, 5)}, false},
		{Segment{V(0, 0), V(10, 0)}, Segment{V(11, -1), V(11, 1)}, false},
		// Collinear overlapping.
		{Segment{V(0, 0), V(10, 0)}, Segment{V(5, 0), V(15, 0)}, true},
		// Collinear disjoint.
		{Segment{V(0, 0), V(4, 0)}, Segment{V(5, 0), V(15, 0)}, false},
		// Parallel non-collinear.
		{Segment{V(0, 0), V(10, 0)}, Segment{V(0, 1), V(10, 1)}, false},
		// Touching at endpoint.
		{Segment{V(0, 0), V(5, 0)}, Segment{V(5, 0), V(5, 5)}, true},
	}
	for i, c := range cases {
		if got := c.a.Intersects(c.b); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
		if got := c.b.Intersects(c.a); got != c.want {
			t.Errorf("case %d (swapped): Intersects = %v, want %v", i, got, c.want)
		}
	}
}

func TestSegmentPointAt(t *testing.T) {
	s := Segment{A: V(2, 2), B: V(6, 6)}
	if got := s.PointAt(0.5); !vecNear(got, V(4, 4), tol) {
		t.Errorf("PointAt = %v", got)
	}
}
