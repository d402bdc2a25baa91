package compute

import (
	"math"
	"testing"
)

func TestFigure1Headline(t *testing.T) {
	// The paper's motivation: 12-camera perception demand exceeds a
	// DRIVE AGX Xavier but fits inside a Jetson AGX Orin.
	d := DefaultDemand()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	demand := d.TOPS()
	if demand <= Xavier().TOPS {
		t.Errorf("demand %v TOPS should exceed Xavier (%v)", demand, Xavier().TOPS)
	}
	if demand >= Orin().TOPS {
		t.Errorf("demand %v TOPS should fit within Orin (%v)", demand, Orin().TOPS)
	}
}

func TestDemandArithmetic(t *testing.T) {
	d := DefaultDemand()
	// 433e9 * 12 * 30 * 1.2 / 1e12 = 187.056 TOPS.
	if math.Abs(d.TOPS()-187.056) > 0.01 {
		t.Errorf("TOPS = %v, want 187.056", d.TOPS())
	}
}

func TestMaxCameras(t *testing.T) {
	d := DefaultDemand()
	// Xavier: 32 / (0.433*30*1.2) = 2.05 -> 2 cameras.
	if got := d.MaxCameras(Xavier()); got != 2 {
		t.Errorf("Xavier MaxCameras = %d, want 2", got)
	}
	// Orin: 275 / 15.588 = 17.6 -> 17 cameras.
	if got := d.MaxCameras(Orin()); got != 17 {
		t.Errorf("Orin MaxCameras = %d, want 17", got)
	}
}

func TestDemandCurveMonotone(t *testing.T) {
	d := DefaultDemand()
	curve := d.DemandCurve(12)
	if len(curve) != 12 {
		t.Fatalf("curve length = %d", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].TOPS <= curve[i-1].TOPS {
			t.Fatalf("curve not increasing at %d", i)
		}
	}
	if curve[11].Cameras != 12 || math.Abs(curve[11].TOPS-d.TOPS()) > 1e-9 {
		t.Errorf("final point = %+v", curve[11])
	}
}

func TestValidate(t *testing.T) {
	bad := []DemandConfig{
		{Model: PerceptionModel{OpsPerFrame: 0}, Cameras: 1, FPR: 30},
		{Model: SSDLarge(), Cameras: -1, FPR: 30},
		{Model: SSDLarge(), Cameras: 1, FPR: -1},
		{Model: SSDLarge(), Cameras: 1, FPR: 30, ExtraModelFrac: -0.5},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestZeroEdgeCases(t *testing.T) {
	z := DemandConfig{}
	if z.MaxCameras(Orin()) != 0 {
		t.Error("zero model max cameras")
	}
}
