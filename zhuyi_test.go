package zhuyi

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
)

func TestScenariosList(t *testing.T) {
	names := Scenarios()
	if len(names) != 9 {
		t.Fatalf("scenario count = %d", len(names))
	}
	if names[0] != ScenarioCutOut || names[8] != ScenarioFrontRightActivity3 {
		t.Errorf("order = %v", names)
	}
}

func TestRunScenarioFacade(t *testing.T) {
	res, err := RunScenario(ScenarioFrontRightActivity1, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Collided() {
		t.Errorf("benign scenario collided: %+v", res.Collision)
	}
	if res.Trace.Len() == 0 {
		t.Error("empty trace")
	}
	if res.Trace.Meta.FPR != 10 || res.Trace.Meta.Seed != 1 {
		t.Errorf("trace meta = %+v", res.Trace.Meta)
	}
	if _, err := RunScenario("bogus", 10, 1); err == nil {
		t.Error("bogus scenario accepted")
	}
}

func TestEndToEndOfflineEvaluation(t *testing.T) {
	res, err := RunScenario(ScenarioCutIn, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator()
	off, err := est.EvaluateTrace(res.Trace, OfflineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if off.MaxFPR() < 1 {
		t.Errorf("max FPR = %v", off.MaxFPR())
	}
	if off.MaxSumFPR() < 3 {
		t.Errorf("max sum FPR = %v", off.MaxSumFPR())
	}
}

func TestFindMRFFacade(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	defer eng.Close()
	m, err := FindMRF(context.Background(), eng, ScenarioFrontRightActivity1, []float64{1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !m.BelowGrid() {
		t.Errorf("MRF = %v", m.Value)
	}
	if _, err := FindMRF(context.Background(), eng, "bogus", nil, 1); err == nil {
		t.Error("bogus scenario accepted")
	}
}

func TestSweepFacade(t *testing.T) {
	res := Sweep(30)
	if len(res.Cells) == 0 {
		t.Fatal("empty sweep")
	}
	if res.SN != 30 {
		t.Errorf("SN = %v", res.SN)
	}
}

func TestCampaignFacade(t *testing.T) {
	var points []CampaignPoint
	for seed := int64(1); seed <= 3; seed++ {
		points = append(points, CampaignPoint{Scenario: ScenarioFrontRightActivity1, FPR: 10, Seed: seed})
	}
	eng := NewEngine(EngineOptions{Workers: 2})
	res, err := Campaign(context.Background(), eng, points)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 3 {
		t.Fatalf("outcomes = %d", len(res.Outcomes))
	}
	if res.Stats.Executed != 3 || res.Stats.CacheHits != 0 {
		t.Errorf("first campaign stats = %+v", res.Stats)
	}
	for _, o := range res.Outcomes {
		if o.Err != nil || o.Result == nil || o.Result.Trace.Len() == 0 {
			t.Fatalf("bad outcome: %+v", o)
		}
		if o.Result.Collided() {
			t.Errorf("benign scenario collided at seed %d", o.Point.Seed)
		}
	}
	// The repeated campaign is pure cache hits with identical results.
	again, err := Campaign(context.Background(), eng, points)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.CacheHits != 3 || again.Stats.Executed != 0 {
		t.Errorf("repeat campaign stats = %+v", again.Stats)
	}
	for i := range points {
		if again.Outcomes[i].Result != res.Outcomes[i].Result {
			t.Errorf("outcome %d not served from cache", i)
		}
		if res.Outcomes[i].Source != "fresh" || again.Outcomes[i].Source != "memory" {
			t.Errorf("outcome %d sources %q then %q, want fresh then memory", i, res.Outcomes[i].Source, again.Outcomes[i].Source)
		}
	}
	// Unknown scenarios are rejected before submission.
	if _, err := Campaign(context.Background(), eng, []CampaignPoint{{Scenario: "bogus", FPR: 1, Seed: 1}}); err == nil {
		t.Error("bogus campaign accepted")
	}
}

func TestGeneratedScenarioCampaignFacade(t *testing.T) {
	specs, err := GenerateScenarios(GenOptions{Seed: 123, Prefix: "facade-test"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("generated %d specs", len(specs))
	}
	// The generator-family bugfix: a family outside ScenarioFamilies is
	// an error, not a silently mislabeled cut-in corpus.
	if _, err := GenerateScenarios(GenOptions{Seed: 1, Families: []ScenarioFamily{"bogus"}}, 1); err == nil {
		t.Error("GenerateScenarios accepted an unknown family")
	}
	var points []CampaignPoint
	for _, sp := range specs {
		// The default registry is process-wide: under -count>1 this
		// test's specs are already registered from the previous run.
		if err := RegisterScenario(sp); err != nil && !strings.Contains(err.Error(), "already registered") {
			t.Fatalf("register %s: %v", sp.Name, err)
		}
		points = append(points, CampaignPoint{Scenario: sp.Name, FPR: 4, Seed: 1})
	}
	// Duplicate registration is rejected: names key the engine cache.
	if err := RegisterScenario(specs[0]); err == nil {
		t.Error("duplicate spec registration accepted")
	}

	eng := NewEngine(EngineOptions{Workers: 2})
	res, err := Campaign(context.Background(), eng, points)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outcomes {
		if o.Err != nil || o.Result == nil || o.Result.Trace.Len() == 0 {
			t.Fatalf("bad outcome for %s: %+v", o.Point.Scenario, o)
		}
	}
	again, err := Campaign(context.Background(), eng, points)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.CacheHits != len(points) {
		t.Errorf("repeat campaign stats = %+v, want all cache hits", again.Stats)
	}
	// Generated scenarios resolve through the by-name APIs, and the
	// registered listing can filter them by tag.
	if _, err := RunScenario(specs[0].Name, 4, 2); err != nil {
		t.Errorf("RunScenario on a registered generated spec: %v", err)
	}
	found := 0
	for _, name := range RegisteredScenarios("generated") {
		for _, sp := range specs {
			if name == sp.Name {
				found++
			}
		}
	}
	if found != len(specs) {
		t.Errorf("registered listing found %d of %d generated specs", found, len(specs))
	}
	// The Table-1 listing stays untouched by registration.
	if len(Scenarios()) != 9 {
		t.Errorf("Scenarios() = %d names after registration, want 9", len(Scenarios()))
	}
}

func TestDefaultParamsFacade(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.C1 != 0.9 || p.C3 != 4.9 || p.K != 5 {
		t.Errorf("params = %+v", p)
	}
}

func TestCampaignWarmStoreFacade(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	points := []CampaignPoint{
		{Scenario: ScenarioCutOut, FPR: 30, Seed: 1},
		{Scenario: ScenarioCutOut, FPR: 30, Seed: 2},
	}
	cold, err := Campaign(context.Background(), NewEngine(EngineOptions{Store: st}), points)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Executed != len(points) {
		t.Fatalf("cold stats = %+v", cold.Stats)
	}
	// A fresh engine over the same store: the campaign must replay from
	// disk without simulating anything.
	warm, err := Campaign(context.Background(), NewEngine(EngineOptions{Store: st}), points)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Executed != 0 || warm.Stats.DiskHits != len(points) {
		t.Fatalf("warm stats = %+v, want all disk hits", warm.Stats)
	}
	for i := range points {
		if warm.Outcomes[i].Result.Collided() != cold.Outcomes[i].Result.Collided() {
			t.Fatalf("point %d outcome changed across the store round trip", i)
		}
		if cold.Outcomes[i].Source != "fresh" || warm.Outcomes[i].Source != "disk" {
			t.Errorf("point %d sources %q then %q, want fresh then disk", i, cold.Outcomes[i].Source, warm.Outcomes[i].Source)
		}
	}
}

// TestPointTraceWarmStoreFacade: a point's rows read cold, then through
// a fresh engine over the same store, without simulating and
// deep-equal; an unknown scenario is refused.
func TestPointTraceWarmStoreFacade(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pt := CampaignPoint{Scenario: ScenarioCutIn, FPR: 30, Seed: 1}
	read := func() (*Trace, engine.Stats) {
		eng := NewEngine(EngineOptions{Store: st})
		defer eng.Close()
		tr, err := PointTrace(context.Background(), eng, pt)
		if err != nil {
			t.Fatal(err)
		}
		return tr, eng.Stats()
	}
	cold, cs := read()
	if cs.Executed != 1 || cs.Archived != 1 || cold.Len() == 0 {
		t.Fatalf("cold stats = %+v, rows %d", cs, cold.Len())
	}
	warm, ws := read()
	if ws.Executed != 0 || ws.DiskHits != 1 || ws.StoreErrors != 0 {
		t.Fatalf("warm stats = %+v, want one disk hit and no run", ws)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm rows differ from the cold ones")
	}
	if _, err := PointTrace(context.Background(), NewEngine(EngineOptions{}), CampaignPoint{Scenario: "bogus", FPR: 30, Seed: 1}); err == nil {
		t.Error("bogus scenario accepted")
	}
}
