package scenario_test

// External-package golden test (it needs internal/metrics, which
// imports scenario): the Table-1 MRF ordering the paper reports must
// survive the registry refactor — the cut-out scenarios demand the
// highest rates (fast ≥ slow), the challenging cut-ins moderate rates,
// and the benign activity scenarios are safe at 1 FPR.

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/scenario"
)

func TestGoldenTable1MRFOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full MRF searches in -short mode")
	}
	eng := engine.New(engine.Options{})
	defer eng.Close()
	grid := metrics.DefaultFPRGrid()
	const seeds = 2

	mrf := func(name string) float64 {
		sc, ok := scenario.Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		m, err := metrics.FindMRF(t.Context(), eng, sc, grid, seeds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return m.Value // 0 encodes "<1"
	}

	cutOutFast := mrf(scenario.CutOutFast)
	cutOut := mrf(scenario.CutOut)
	challenging := mrf(scenario.ChallengingCutIn)
	challengingCurved := mrf(scenario.ChallengingCutInCurved)
	for name, v := range map[string]float64{
		scenario.FrontRightActivity1: mrf(scenario.FrontRightActivity1),
		scenario.FrontRightActivity2: mrf(scenario.FrontRightActivity2),
		scenario.FrontRightActivity3: mrf(scenario.FrontRightActivity3),
	} {
		if v > 1 {
			t.Errorf("benign %s: MRF %g, want safe at 1 FPR", name, v)
		}
		if challenging < v {
			t.Errorf("MRF ordering: challenging-cut-in %g < %s %g", challenging, name, v)
		}
	}
	if cutOutFast < cutOut {
		t.Errorf("MRF ordering: cut-out-fast %g < cut-out %g", cutOutFast, cutOut)
	}
	if cutOut < challenging || cutOut < challengingCurved {
		t.Errorf("MRF ordering: cut-out %g below challenging cut-ins (%g, %g)",
			cutOut, challenging, challengingCurved)
	}
	if cutOut <= 1 {
		t.Errorf("cut-out MRF %g: the reveal must defeat a 1-FPR system", cutOut)
	}
}
