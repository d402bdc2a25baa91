package baseline

import (
	"context"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/scenario"
)

// testEng is shared by the tests, so their overlapping points are
// cache hits.
var testEng = engine.New(engine.Options{})

func TestUniformGridSearchBenign(t *testing.T) {
	sc, _ := scenario.ByName(scenario.FrontRightActivity1)
	res, err := UniformGridSearch(context.Background(), testEng, sc, []float64{1, 2}, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("benign scenario infeasible")
	}
	if res.MinUniformFPR != 1 {
		t.Errorf("min uniform FPR = %v, want 1", res.MinUniformFPR)
	}
	if res.TotalFPR != 5 {
		t.Errorf("total = %v, want 5 (1 FPR x 5 cameras)", res.TotalFPR)
	}
	if res.Runs != 4 {
		t.Errorf("runs = %d, want 2 rates x 2 seeds", res.Runs)
	}
	if res.RunsScheduled != 4 {
		t.Errorf("scheduled = %d, want 4 (benign: nothing pruned)", res.RunsScheduled)
	}
}

func TestUniformGridSearchCutOut(t *testing.T) {
	// The cut-out collides at 1 FPR: the uniform search must land above
	// the grid floor, and its per-vehicle budget is rate x every camera
	// — the uniform penalty Zhuyi's per-camera estimates avoid.
	sc, _ := scenario.ByName(scenario.CutOut)
	res, err := UniformGridSearch(context.Background(), testEng, sc, []float64{1, 6, 30}, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("cut-out infeasible at 30 FPR")
	}
	if res.MinUniformFPR <= 1 {
		t.Errorf("min uniform FPR = %v, want > 1", res.MinUniformFPR)
	}
	if res.TotalFPR != res.MinUniformFPR*5 {
		t.Errorf("total = %v", res.TotalFPR)
	}
}

func TestPerCameraSearchCostExplodes(t *testing.T) {
	// The paper's point against grid search in a multi-camera setting:
	// exploring per-camera rates independently costs |grid|^cameras.
	uniform := float64(12 * 10) // 12 rates x 10 seeds
	perCamera := PerCameraSearchCost(12, 5, 10)
	if perCamera/uniform < 1e4 {
		t.Errorf("per-camera cost %v not drastically above uniform %v", perCamera, uniform)
	}
	if perCamera != math.Pow(12, 5)*10 {
		t.Errorf("cost = %v", perCamera)
	}
}

func TestRSSSafeDistanceProperties(t *testing.T) {
	p := DefaultRSSParams()
	// Longer response times demand more distance.
	prev := -1.0
	for _, rho := range []float64{0, 0.1, 0.5, 1, 2} {
		d := p.SafeDistance(25, 20, rho)
		if d < prev {
			t.Fatalf("safe distance decreased with rho: %v after %v", d, prev)
		}
		prev = d
	}
	// Faster leads shrink the required distance.
	if p.SafeDistance(25, 25, 0.5) >= p.SafeDistance(25, 10, 0.5) {
		t.Error("faster lead did not shrink the RSS distance")
	}
	// Never negative.
	if d := p.SafeDistance(0, 30, 0); d != 0 {
		t.Errorf("negative-regime distance = %v", d)
	}
}

func TestRSSTolerableResponseInversion(t *testing.T) {
	p := DefaultRSSParams()
	vr, vf := 25.0, 15.0
	for _, rho := range []float64{0.2, 0.5, 1.0} {
		gap := p.SafeDistance(vr, vf, rho)
		got, ok := p.TolerableResponse(vr, vf, gap)
		if !ok {
			t.Fatalf("rho %v: inversion infeasible", rho)
		}
		if math.Abs(got-rho) > 1e-6 {
			t.Errorf("rho %v inverted to %v", rho, got)
		}
	}
	// A gap below the zero-response envelope is infeasible.
	if _, ok := p.TolerableResponse(30, 0, 5); ok {
		t.Error("tiny gap reported feasible")
	}
	// A huge gap saturates at the bisection ceiling.
	rho, ok := p.TolerableResponse(10, 10, 1e6)
	if !ok || rho < 9.99 {
		t.Errorf("huge gap rho = %v, ok = %v", rho, ok)
	}
}

func TestRSSLatencyComparableToZhuyi(t *testing.T) {
	// For a matched following geometry, both models must agree on the
	// qualitative ordering: tighter gaps mean shorter tolerable
	// reaction/response times.
	p := DefaultRSSParams()
	tight := RSSLatency(p, 25, 15, 30)
	loose := RSSLatency(p, 25, 15, 90)
	if !loose.Feasible {
		t.Fatal("loose gap infeasible")
	}
	if tight.Feasible && tight.Rho >= loose.Rho {
		t.Errorf("tight gap rho %v not below loose %v", tight.Rho, loose.Rho)
	}
}
