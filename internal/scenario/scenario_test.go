package scenario

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/world"
)

func TestAllNineScenariosPresent(t *testing.T) {
	all := All()
	if len(all) != 9 {
		t.Fatalf("scenario count = %d, want 9", len(all))
	}
	wantOrder := []string{
		CutOut, CutOutFast, CutIn, ChallengingCutIn, ChallengingCutInCurved,
		VehicleFollowing, FrontRightActivity1, FrontRightActivity2, FrontRightActivity3,
	}
	for i, s := range all {
		if s.Name != wantOrder[i] {
			t.Errorf("position %d: %s, want %s", i, s.Name, wantOrder[i])
		}
	}
}

func TestTable1SpeedsMatchPaper(t *testing.T) {
	want := map[string]float64{
		CutOut:                 20,
		CutOutFast:             40,
		CutIn:                  70,
		ChallengingCutIn:       60,
		ChallengingCutInCurved: 40,
		VehicleFollowing:       70,
		FrontRightActivity1:    40,
		FrontRightActivity2:    40,
		FrontRightActivity3:    60,
	}
	for _, s := range All() {
		if s.EgoSpeedMPH != want[s.Name] {
			t.Errorf("%s speed = %v mph, want %v", s.Name, s.EgoSpeedMPH, want[s.Name])
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName(CutOutFast); !ok {
		t.Error("cut-out-fast not found")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("phantom scenario found")
	}
	if len(Names()) != 9 {
		t.Error("name lists wrong size")
	}
}

func TestValidateAll(t *testing.T) {
	if err := Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildConfigsConsistent(t *testing.T) {
	for _, s := range All() {
		cfg := s.Build(10, 3)
		if cfg.FPR != 10 || cfg.Seed != 3 {
			t.Errorf("%s: fpr/seed not propagated: %+v", s.Name, cfg)
		}
		wantSpeed := units.MPHToMPS(s.EgoSpeedMPH)
		if math.Abs(cfg.EgoInit.Speed-wantSpeed) > 1e-9 {
			t.Errorf("%s: ego speed %v, want %v", s.Name, cfg.EgoInit.Speed, wantSpeed)
		}
		if cfg.DesiredSpeed != cfg.EgoInit.Speed {
			t.Errorf("%s: desired speed mismatch", s.Name)
		}
		if cfg.Road.NumLanes != 3 {
			t.Errorf("%s: lanes = %d, want 3 (paper: 3-lane road)", s.Name, cfg.Road.NumLanes)
		}
		if len(cfg.Actors) == 0 {
			t.Errorf("%s: no actors", s.Name)
		}
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	a := buildCutOut(10, 7, true)
	b := buildCutOut(10, 7, true)
	if a.Actors[0].Init != b.Actors[0].Init {
		t.Error("same seed produced different geometry")
	}
	c := buildCutOut(10, 8, true)
	if a.Actors[2].Init == c.Actors[2].Init {
		t.Error("different seeds produced identical jittered geometry")
	}
}

func TestCurvedScenarioUsesCurvedRoad(t *testing.T) {
	cfg := buildChallengingCutIn(30, 1, true)
	if cfg.Name != ChallengingCutInCurved {
		t.Errorf("name = %s", cfg.Name)
	}
	// Somewhere past the lead-in the road must curve.
	if cfg.Road.Ref.PoseAt(500).Heading == cfg.Road.Ref.PoseAt(0).Heading {
		t.Error("curved scenario road keeps its heading to s=500")
	}
	straight := buildChallengingCutIn(30, 1, false)
	if straight.Road.Ref.PoseAt(500).Heading != straight.Road.Ref.PoseAt(0).Heading {
		t.Error("straight scenario road turns")
	}
}

// TestScenariosSafeAtFullRate runs every scenario once at 30 FPR: the
// paper's Table 1 shows no scenario requires more than 30 FPR.
func TestScenariosSafeAtFullRate(t *testing.T) {
	for _, s := range All() {
		res, err := sim.Run(s.Build(30, 1))
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if res.Collided() {
			t.Errorf("%s collided at 30 FPR: %+v (min gap %v)", s.Name, res.Collision, res.MinBumperGap)
		}
	}
}

// TestCutOutCollidesAtOneFPR checks the scenario family's central
// mechanism: the cut-out reveal defeats a 1-FPR perception system.
func TestCutOutCollidesAtOneFPR(t *testing.T) {
	collided := 0
	for seed := int64(1); seed <= 3; seed++ {
		res, err := sim.Run(buildCutOut(1, seed, false))
		if err != nil {
			t.Fatal(err)
		}
		if res.Collided() {
			collided++
		}
	}
	if collided == 0 {
		t.Error("cut-out at 1 FPR never collided across 3 seeds")
	}
}

func TestActivityFlagsRoughlyMatchFOV(t *testing.T) {
	// Scenarios flagged with right/left activity must place an actor
	// laterally on that side of the ego at some point during a run
	// (flags describe activity over the scenario, not just at spawn).
	for _, s := range All() {
		cfg := s.Build(30, 1)
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		hasRight, hasLeft := false, false
		for _, row := range res.Trace.Rows {
			_, egoD := cfg.Road.Frenet(row.Ego.Pose.Pos)
			for _, a := range row.Actors {
				_, d := cfg.Road.Frenet(a.Pose.Pos)
				if d < egoD-1.5 {
					hasRight = true
				}
				if d > egoD+1.5 {
					hasLeft = true
				}
			}
		}
		if s.Right && !hasRight {
			t.Errorf("%s flagged right activity but no actor was ever on the right", s.Name)
		}
		if s.Left && !hasLeft {
			t.Errorf("%s flagged left activity but no actor was ever on the left", s.Name)
		}
	}
}

func TestScenarioActorsStartApart(t *testing.T) {
	// No scenario may spawn overlapping vehicles.
	for _, s := range All() {
		cfg := s.Build(30, 1)
		agents := make([]world.Agent, 0, len(cfg.Actors)+1)
		agents = append(agents, cfg.EgoInit.ToAgent(cfg.Road, world.EgoID, cfg.EgoParams))
		for _, a := range cfg.Actors {
			agents = append(agents, a.Init.ToAgent(cfg.Road, a.ID, a.Params))
		}
		for i := range agents {
			for k := i + 1; k < len(agents); k++ {
				if agents[i].BBox().Intersects(agents[k].BBox()) {
					t.Errorf("%s: %s overlaps %s at spawn", s.Name, agents[i].ID, agents[k].ID)
				}
			}
		}
	}
}
