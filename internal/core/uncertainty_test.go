package core

import (
	"testing"
)

func TestUncertaintyValidate(t *testing.T) {
	good := Uncertainty{PosSigma: 0.5, SpeedSigma: 0.3, SigmaMargin: 2, ConfirmFactor: 1.5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Uncertainty{
		{PosSigma: -1},
		{SpeedSigma: -1},
		{SigmaMargin: -1},
		{ConfirmFactor: -1},
	}
	for i, u := range bad {
		if err := u.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestUncertaintyApply(t *testing.T) {
	p := DefaultParams()
	u := Uncertainty{PosSigma: 1.0, SpeedSigma: 0.5, SigmaMargin: 2, ConfirmFactor: 1.6}
	q := u.Apply(p)
	if q.DistanceMargin != 2.0 {
		t.Errorf("distance margin = %v", q.DistanceMargin)
	}
	if q.SpeedMargin != 1.0 {
		t.Errorf("speed margin = %v", q.SpeedMargin)
	}
	if q.K != 8 {
		t.Errorf("K = %d, want 8 (5 x 1.6)", q.K)
	}
	if q.LateralMargin <= p.LateralMargin {
		t.Errorf("lateral margin %v not widened from %v", q.LateralMargin, p.LateralMargin)
	}
	// Default sigma margin is 2.
	d := Uncertainty{PosSigma: 1}.Apply(p)
	if d.DistanceMargin != 2 {
		t.Errorf("default sigma margin: %v", d.DistanceMargin)
	}
	// Zero confirm factor keeps K.
	if d.K != p.K {
		t.Errorf("K changed without confirm factor: %d", d.K)
	}
}

func TestUncertaintyTightensLatency(t *testing.T) {
	// The same scene under a less accurate perception model must demand
	// an equal or lower tolerable latency (higher FPR).
	exact := DefaultParams()
	fuzzy := Uncertainty{PosSigma: 2.0, SpeedSigma: 1.0, SigmaMargin: 2, ConfirmFactor: 1.5}.Apply(exact)

	ego := egoAt(25, 0)
	traj := staticTraj(110, 0, exact.Horizon)
	le := TolerableLatency(ego, traj, carDims, 0.033, exact)
	lf := TolerableLatency(ego, traj, carDims, 0.033, fuzzy)
	if !le.Feasible {
		t.Fatal("exact model infeasible")
	}
	exactL := le.Latency
	fuzzyL := lf.Latency
	if !lf.Feasible {
		fuzzyL = 0
	}
	if fuzzyL > exactL {
		t.Errorf("uncertain model more tolerant: %v > %v", fuzzyL, exactL)
	}
	if fuzzyL == exactL {
		t.Errorf("uncertainty had no effect (%v); margins too weak for the test geometry", fuzzyL)
	}
}

func TestUncertaintyMonotoneInSigma(t *testing.T) {
	// Larger position uncertainty can only tighten the estimate.
	ego := egoAt(22, 0)
	traj := straightTraj(70, 0, 15, 0, DefaultParams().Horizon)
	prev := 2.0
	for _, sigma := range []float64{0, 0.5, 1, 2, 4} {
		p := Uncertainty{PosSigma: sigma}.Apply(DefaultParams())
		r := TolerableLatency(ego, traj, carDims, 0.033, p)
		l := r.Latency
		if !r.Feasible {
			l = 0
		}
		if l > prev+1e-9 {
			t.Fatalf("latency grew with sigma %v: %v after %v", sigma, l, prev)
		}
		prev = l
	}
}

func TestAccuracyOperatingPointTrade(t *testing.T) {
	// The §5 trade: a full-precision model at low FPR vs a quantized
	// model (2x throughput, more noise). For a mild scene the quantized
	// point wins because its requirement stays below its higher budget;
	// for a severe scene the inflated requirement exceeds even the
	// doubled budget.
	type operatingPoint struct {
		Name        string
		Uncertainty Uncertainty
		MaxFPR      float64 // sustainable per-camera rate under the budget
	}
	full := operatingPoint{
		Name:        "fp16",
		Uncertainty: Uncertainty{PosSigma: 0.3, SpeedSigma: 0.2},
		MaxFPR:      10,
	}
	quant := operatingPoint{
		Name:        "int8",
		Uncertainty: Uncertainty{PosSigma: 1.5, SpeedSigma: 0.8, ConfirmFactor: 1.4},
		MaxFPR:      20,
	}

	requiredFor := func(op operatingPoint, dist float64) float64 {
		p := op.Uncertainty.Apply(DefaultParams())
		r := TolerableLatency(egoAt(25, 0), staticTraj(dist, 0, p.Horizon), carDims, 1/op.MaxFPR, p)
		if !r.Feasible {
			return 1e9
		}
		return r.FPR()
	}

	// Mild scene: both feasible; quantized has more headroom.
	mild := 160.0
	fullReq, quantReq := requiredFor(full, mild), requiredFor(quant, mild)
	if fullReq > full.MaxFPR || quantReq > quant.MaxFPR {
		t.Fatalf("mild scene infeasible: full %v, quant %v", fullReq, quantReq)
	}
	if quant.MaxFPR-quantReq <= full.MaxFPR-fullReq {
		t.Errorf("quantized headroom (%v) should beat full precision (%v) on a mild scene",
			quant.MaxFPR-quantReq, full.MaxFPR-fullReq)
	}

	// Severe scene: the quantized model's inflated requirement grows
	// faster than the exact model's.
	severe := 78.0
	fullReqS, quantReqS := requiredFor(full, severe), requiredFor(quant, severe)
	if quantReqS <= fullReqS {
		t.Errorf("severe scene: quantized requirement %v should exceed full-precision %v", quantReqS, fullReqS)
	}
}
