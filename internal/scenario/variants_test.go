package scenario

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestVariantsRegistry(t *testing.T) {
	vs := Default().List(TagVariant)
	if len(vs) != 4 {
		t.Fatalf("variant count = %d", len(vs))
	}
	if n := len(Default().List()); n != 13 {
		t.Errorf("combined count = %d", n)
	}
	if _, ok := taggedLookup(TruckCutOut, TagVariant); !ok {
		t.Error("truck cut-out missing")
	}
	if _, ok := taggedLookup("nope", TagVariant); ok {
		t.Error("phantom variant found")
	}
	// Variants do not shadow the paper scenarios.
	if _, ok := ByName(HighwayPlatoon); ok {
		t.Error("variant leaked into the paper scenario registry")
	}
}

func TestVariantsRunSafelyAtFullRate(t *testing.T) {
	for _, s := range Default().List(TagVariant) {
		res, err := sim.Run(s.Build(30, 1))
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if res.Collided() {
			t.Errorf("%s collided at 30 FPR: %+v (min gap %.2f)", s.Name, res.Collision, res.MinBumperGap)
		}
	}
}

func TestTruckOcclusionShadowLargerThanCar(t *testing.T) {
	// The truck variant exists to stress occlusion: its box must
	// actually be longer/wider than a car's.
	truckCfg := buildTruckCutOut(30, 1)
	carCfg := buildCutOut(30, 1, false)
	var truckLen, carLen float64
	for _, a := range truckCfg.Actors {
		if a.ID == "truck" {
			truckLen = a.Params.Length
		}
	}
	for _, a := range carCfg.Actors {
		if a.ID == "lead" {
			carLen = a.Params.Length
		}
	}
	if truckLen <= carLen {
		t.Errorf("truck length %v not larger than car %v", truckLen, carLen)
	}
}

func TestCrosserIsThreatWhenOnCollisionCourse(t *testing.T) {
	// The crossing agent's trajectory traverses the ego corridor; the
	// Zhuyi model must flag it (it exercises the velocity projection:
	// the crosser's longitudinal speed component is near zero).
	cfg := buildUrbanCrosser(30, 1)
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est := core.NewEstimator()
	off, err := est.EvaluateTrace(res.Trace, core.OfflineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// At some instant the front camera demand must exceed the idle
	// floor: a crossing agent with ~zero longitudinal velocity forces
	// the ego to plan a stop.
	if off.MaxFPR() <= 1.01 {
		t.Errorf("crosser never tightened the estimate: max FPR %v", off.MaxFPR())
	}
}

func TestDenseTrafficEstimatesBounded(t *testing.T) {
	// Six actors: the estimator must handle the load and keep side
	// cameras bounded by the actual threats.
	cfg := buildDenseTraffic(30, 1)
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Collided() {
		t.Fatalf("dense traffic collided: %+v", res.Collision)
	}
	est := core.NewEstimator()
	off, err := est.EvaluateTrace(res.Trace, core.OfflineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if off.MaxFPR() >= 30.4 {
		t.Errorf("dense traffic saturated the estimate: %v", off.MaxFPR())
	}
}

func TestPlatoonBrakingWaveTightensFront(t *testing.T) {
	cfg := buildHighwayPlatoon(30, 1)
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est := core.NewEstimator()
	off, err := est.EvaluateTrace(res.Trace, core.OfflineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	maxPer := off.MaxCameraFPR()
	if maxPer["front120"] <= 1.5 {
		t.Errorf("platoon braking wave left front camera at %v FPR", maxPer["front120"])
	}
}
