package units

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMPHToMPSKnownValues(t *testing.T) {
	cases := []struct {
		mph, mps float64
	}{
		{0, 0},
		{20, 8.9408},
		{40, 17.8816},
		{60, 26.8224},
		{70, 31.2928},
	}
	for _, c := range cases {
		if got := MPHToMPS(c.mph); !almostEqual(got, c.mps, 1e-9) {
			t.Errorf("MPHToMPS(%v) = %v, want %v", c.mph, got, c.mps)
		}
	}
}

func TestMPHRoundTrip(t *testing.T) {
	f := func(mph float64) bool {
		if math.IsNaN(mph) || math.IsInf(mph, 0) || math.Abs(mph) > 1e12 {
			return true
		}
		got := MPSToMPH(MPHToMPS(mph))
		return almostEqual(got, mph, 1e-6*math.Max(1, math.Abs(mph)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDegRad(t *testing.T) {
	if got := DegToRad(180); !almostEqual(got, math.Pi, 1e-12) {
		t.Errorf("DegToRad(180) = %v", got)
	}
}

func TestNormalizeAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{-math.Pi / 2, -math.Pi / 2},
		{5 * math.Pi / 2, math.Pi / 2},
	}
	for _, c := range cases {
		if got := NormalizeAngle(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("NormalizeAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormalizeAngleRange(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.Abs(x) > 1e6 {
			return true
		}
		got := NormalizeAngle(x)
		return got > -math.Pi-1e-9 && got <= math.Pi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
