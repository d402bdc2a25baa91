package sim

import (
	"math"
	"testing"

	"repro/internal/behavior"
	"repro/internal/perception"
	"repro/internal/road"
	"repro/internal/sensor"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/vehicle"
	"repro/internal/world"
)

// cleanPerception removes noise so closed-loop tests are deterministic.
func cleanPerception() perception.Config {
	cfg := perception.DefaultConfig()
	cfg.DetectProb = 1
	cfg.PosNoise = 0
	cfg.VelNoise = 0
	return cfg
}

func baseConfig(name string) Config {
	return Config{
		Name:            name,
		Road:            road.NewStraight(3, 5000),
		EgoParams:       vehicle.Car(),
		Duration:        20,
		FPR:             30,
		Perception:      cleanPerception(),
		Seed:            1,
		StopOnCollision: true,
	}
}

func TestFreeDriveHoldsSpeed(t *testing.T) {
	cfg := baseConfig("free")
	cfg.DesiredSpeed = units.MPHToMPS(40)
	cfg.EgoInit = vehicle.FrenetState{S: 0, D: 3.5, Speed: cfg.DesiredSpeed}
	cfg.Duration = 10

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Collided() {
		t.Fatal("collision on empty road")
	}
	last := res.Trace.Rows[res.Trace.Len()-1]
	if math.Abs(last.Ego.Speed-cfg.DesiredSpeed) > 0.5 {
		t.Errorf("final speed = %v, want ~%v", last.Ego.Speed, cfg.DesiredSpeed)
	}
	wantS := cfg.DesiredSpeed * 10
	s, _ := cfg.Road.Frenet(last.Ego.Pose.Pos)
	if math.Abs(s-wantS) > 5 {
		t.Errorf("final station = %v, want ~%v", s, wantS)
	}
}

func TestFollowsBrakingLeadAtHighFPR(t *testing.T) {
	cfg := baseConfig("follow")
	cfg.DesiredSpeed = units.MPHToMPS(70)
	cfg.EgoInit = vehicle.FrenetState{S: 0, D: 3.5, Speed: cfg.DesiredSpeed}
	cfg.Duration = 25
	cfg.Actors = []ActorSpec{{
		ID:     "lead",
		Params: vehicle.Car(),
		Init:   vehicle.FrenetState{S: 50 + 4.6, D: 3.5, Speed: cfg.DesiredSpeed},
		Script: behavior.NewScript(behavior.Stage{
			When: behavior.AtTime(5),
			Do:   &behavior.BrakeTo{Target: 0, Decel: 6},
		}),
	}}

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Collided() {
		t.Fatalf("collision at 30 FPR: %+v (min gap %v)", res.Collision, res.MinBumperGap)
	}
	if !res.EgoStopped {
		t.Error("ego never stopped behind the stopped lead")
	}
	if res.MinBumperGap <= 0 {
		t.Errorf("min bumper gap = %v", res.MinBumperGap)
	}
}

func TestLowFPRCausesCollisionHighFPRAvoidsIt(t *testing.T) {
	// The central simulator property for the paper's Table 1 (MRF): the
	// same scenario collides at a very low FPR and is safe at a high one.
	run := func(fpr float64) *Result {
		cfg := baseConfig("mrf-mechanism")
		cfg.DesiredSpeed = units.MPHToMPS(60)
		cfg.EgoInit = vehicle.FrenetState{S: 0, D: 3.5, Speed: cfg.DesiredSpeed}
		cfg.FPR = fpr
		cfg.Duration = 20
		// A static obstacle 100 m ahead at 60 mph: K-frame confirmation at
		// 1 FPR burns ~2.5 s (the two overlapping front cameras alternate
		// hits) before AEB can arm, which is too late; at 30 FPR the
		// obstacle confirms in ~0.1 s.
		cfg.Actors = []ActorSpec{{
			ID:     "obstacle",
			Params: vehicle.StaticObstacle(),
			Init:   vehicle.FrenetState{S: 100, D: 3.5},
		}}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	low := run(1)
	high := run(30)
	if !low.Collided() {
		t.Errorf("1-FPR run avoided collision (min gap %v)", low.MinBumperGap)
	}
	if high.Collided() {
		t.Errorf("30-FPR run collided: %+v", high.Collision)
	}
}

func TestCollisionStopsSimulation(t *testing.T) {
	cfg := baseConfig("crash")
	cfg.DesiredSpeed = units.MPHToMPS(60)
	cfg.EgoInit = vehicle.FrenetState{S: 0, D: 3.5, Speed: cfg.DesiredSpeed}
	cfg.FPR = 1
	cfg.Perception.ConfirmFrames = 10 // pathological confirmation delay
	cfg.Actors = []ActorSpec{{
		ID:     "wall",
		Params: vehicle.StaticObstacle(),
		Init:   vehicle.FrenetState{S: 60, D: 3.5},
	}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Collided() {
		t.Fatal("expected collision")
	}
	if res.Collision.ActorID != "wall" {
		t.Errorf("collision with %q", res.Collision.ActorID)
	}
	if res.Trace.Collision == nil {
		t.Error("collision not recorded in trace")
	}
	lastT := res.Trace.Rows[res.Trace.Len()-1].Time
	if lastT > res.Collision.Time {
		t.Errorf("rows recorded after collision: %v > %v", lastT, res.Collision.Time)
	}
}

func TestFramesProcessedMatchesFPR(t *testing.T) {
	cfg := baseConfig("frames")
	cfg.DesiredSpeed = 20
	cfg.EgoInit = vehicle.FrenetState{S: 0, D: 3.5, Speed: 20}
	cfg.Duration = 10
	cfg.FPR = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cam := range sensor.DefaultRig() {
		got := res.FramesProcessed[cam.Name]
		if got < 99 || got > 102 {
			t.Errorf("camera %s processed %d frames, want ~101", cam.Name, got)
		}
	}
}

type fixedRates map[string]float64

func (f fixedRates) Rates(float64, world.Agent, []world.Agent) map[string]float64 { return f }

func TestRateControllerAdjustsRates(t *testing.T) {
	cfg := baseConfig("rates")
	cfg.DesiredSpeed = 20
	cfg.EgoInit = vehicle.FrenetState{S: 0, D: 3.5, Speed: 20}
	cfg.Duration = 10
	cfg.FPR = 30
	cfg.RateController = fixedRates{sensor.Front120: 5, sensor.Left: 2}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := res.FramesProcessed[sensor.Front120]
	if front < 48 || front > 55 {
		t.Errorf("front camera frames = %d, want ~51 at 5 FPR", front)
	}
	left := res.FramesProcessed[sensor.Left]
	if left < 19 || left > 23 {
		t.Errorf("left camera frames = %d, want ~21 at 2 FPR", left)
	}
	// Uncontrolled cameras keep the configured rate.
	rear := res.FramesProcessed[sensor.Rear]
	if rear < 295 {
		t.Errorf("rear camera frames = %d, want ~301 at 30 FPR", rear)
	}
	// Rates are recorded in the trace.
	row := res.Trace.Rows[res.Trace.Len()-1]
	if row.Rates[sensor.Front120] != 5 {
		t.Errorf("recorded front rate = %v", row.Rates[sensor.Front120])
	}
}

func TestTraceRecordsEgoAccel(t *testing.T) {
	cfg := baseConfig("accel")
	cfg.DesiredSpeed = 30
	cfg.EgoInit = vehicle.FrenetState{S: 0, D: 3.5, Speed: 20}
	cfg.Duration = 5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Ego starts below desired speed: early rows record positive accel.
	if res.Trace.Rows[10].Ego.Accel <= 0 {
		t.Errorf("recorded accel = %v, want > 0", res.Trace.Rows[10].Ego.Accel)
	}
	if res.Trace.Rows[10].CmdAccel != res.Trace.Rows[10].Ego.Accel {
		t.Error("CmdAccel and Ego.Accel disagree")
	}
}

func TestConfigValidation(t *testing.T) {
	good := baseConfig("ok")
	good.DesiredSpeed = 20
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil road", func(c *Config) { c.Road = nil }},
		{"zero duration", func(c *Config) { c.Duration = 0 }},
		{"negative dt", func(c *Config) { c.Dt = -0.01 }},
		{"zero fpr", func(c *Config) { c.FPR = 0 }},
		{"duplicate actor", func(c *Config) {
			c.Actors = []ActorSpec{
				{ID: "a", Params: vehicle.Car()},
				{ID: "a", Params: vehicle.Car()},
			}
		}},
		{"ego actor id", func(c *Config) {
			c.Actors = []ActorSpec{{ID: world.EgoID, Params: vehicle.Car()}}
		}},
	}
	for _, c := range cases {
		cfg := good
		c.mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	make2 := func(seed int64) *Result {
		cfg := baseConfig("det")
		cfg.DesiredSpeed = units.MPHToMPS(40)
		cfg.EgoInit = vehicle.FrenetState{S: 0, D: 3.5, Speed: cfg.DesiredSpeed}
		cfg.Perception = perception.DefaultConfig() // with noise
		cfg.Seed = seed
		cfg.Duration = 8
		cfg.Actors = []ActorSpec{{
			ID:     "lead",
			Params: vehicle.Car(),
			Init:   vehicle.FrenetState{S: 60, D: 3.5, Speed: 15},
		}}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := make2(42)
	b := make2(42)
	if a.Trace.Len() != b.Trace.Len() {
		t.Fatalf("row counts differ: %d vs %d", a.Trace.Len(), b.Trace.Len())
	}
	la := a.Trace.Rows[a.Trace.Len()-1].Ego.Pose.Pos
	lb := b.Trace.Rows[b.Trace.Len()-1].Ego.Pose.Pos
	if la != lb {
		t.Errorf("same seed diverged: %v vs %v", la, lb)
	}
	c := make2(43)
	lc := c.Trace.Rows[c.Trace.Len()-1].Ego.Pose.Pos
	if la == lc {
		t.Log("warning: different seeds produced identical end states")
	}
}

// TestSteppableAPIObservesRun drives the steppable API directly: the
// live state is coherent between steps, and Step is a no-op after
// completion.
func TestSteppableAPIObservesRun(t *testing.T) {
	s, err := New(benchConfig(trace.LevelSummary))
	if err != nil {
		t.Fatal(err)
	}
	if s.steps <= 0 {
		t.Fatalf("steps = %d", s.steps)
	}
	steps := 0
	lastT := -1.0
	for s.Step() {
		steps++
		if s.t <= lastT {
			t.Fatalf("time did not advance: %v after %v", s.t, lastT)
		}
		lastT = s.t
		if s.egoAgent.ID != world.EgoID {
			t.Fatalf("ego agent = %+v", s.egoAgent)
		}
	}
	if !s.done {
		t.Error("done false after Step() returned false")
	}
	if s.Step() {
		t.Error("Step() after completion reported more work")
	}
	res := s.Result()
	if res == nil || res.Level != trace.LevelSummary {
		t.Fatalf("result = %+v", res)
	}
	if steps == 0 {
		t.Error("no steps observed")
	}
}
