package sim_test

// Golden equivalence suite for the steppable-core refactor: legacyRun
// below is a frozen, verbatim copy of the monolithic pre-refactor
// sim.Run (PR 1–4 era). For every registered scenario — the Table-1
// nine plus the ODD variants — across seeds and rates, the refactored
// stage pipeline must reproduce byte-identical trace serializations
// and identical result summaries, which is what lets the refactor ship
// without a sim.Version bump (the persistent store keeps serving
// archived traces recorded by the old loop).
//
// Do not "fix" or modernize legacyRun: its value is that it does not
// change.

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/behavior"
	"repro/internal/perception"
	"repro/internal/planner"
	"repro/internal/road"
	"repro/internal/scenario"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/vehicle"
	"repro/internal/world"
)

// legacyValidate applies the frozen defaulting rules of the
// pre-refactor validate (the Record level did not exist then).
func legacyValidate(cfg *sim.Config) error {
	if cfg.Road == nil {
		return fmt.Errorf("sim: nil road")
	}
	if err := cfg.Road.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if cfg.Duration <= 0 {
		return fmt.Errorf("sim: non-positive duration %v", cfg.Duration)
	}
	if cfg.Dt == 0 {
		cfg.Dt = 0.01
	}
	if cfg.Dt < 0 {
		return fmt.Errorf("sim: negative dt %v", cfg.Dt)
	}
	if cfg.FPR <= 0 {
		return fmt.Errorf("sim: non-positive FPR %v", cfg.FPR)
	}
	if cfg.Rig == nil {
		cfg.Rig = sensor.DefaultRig()
	}
	if cfg.RateEpoch <= 0 {
		cfg.RateEpoch = 0.1
	}
	if cfg.Perception.ConfirmFrames == 0 {
		cfg.Perception = perception.DefaultConfig()
	}
	ids := map[string]bool{world.EgoID: true}
	for _, a := range cfg.Actors {
		if ids[a.ID] {
			return fmt.Errorf("sim: duplicate actor ID %q", a.ID)
		}
		ids[a.ID] = true
	}
	return nil
}

func legacyPlannerConfig(cfg sim.Config) planner.Config {
	if cfg.Planner != nil {
		return *cfg.Planner
	}
	return planner.DefaultConfig(cfg.DesiredSpeed, cfg.EgoParams)
}

func legacyUpdateMinGap(res *sim.Result, r *road.Road, ego vehicle.FrenetState, egoAgent world.Agent, actors []world.Agent) {
	for _, a := range actors {
		s, d := r.Frenet(a.Pose.Pos)
		if math.Abs(d-ego.D) > 2.2 {
			continue
		}
		gap := math.Abs(s-ego.S) - (egoAgent.Length+a.Length)/2
		if gap < res.MinBumperGap {
			res.MinBumperGap = gap
		}
	}
}

func legacySnapshotRates(rates map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(rates))
	for k, v := range rates {
		out[k] = v
	}
	return out
}

// legacyRun is the frozen pre-refactor sim.Run.
func legacyRun(cfg sim.Config) (*sim.Result, error) {
	if err := legacyValidate(&cfg); err != nil {
		return nil, err
	}

	rig := cfg.Rig
	pl := planner.New(legacyPlannerConfig(cfg), cfg.Road)
	pipe := perception.NewPipeline(cfg.Perception, cfg.Seed)

	egoState := cfg.EgoInit
	appliedAccel := 0.0

	type actorRT struct {
		spec  sim.ActorSpec
		state vehicle.FrenetState
	}
	actors := make([]*actorRT, len(cfg.Actors))
	for i, spec := range cfg.Actors {
		actors[i] = &actorRT{spec: spec, state: spec.Init}
	}

	rates := make(map[string]float64, len(rig))
	nextFrame := make(map[string]float64, len(rig))
	frames := make(map[string]int, len(rig))
	for _, c := range rig {
		rates[c.Name] = cfg.FPR
		nextFrame[c.Name] = 0
	}

	tr := &trace.Trace{Meta: trace.Meta{
		Scenario: cfg.Name,
		FPR:      cfg.FPR,
		Seed:     cfg.Seed,
		Dt:       cfg.Dt,
		Cameras:  rig.Names(),
	}}
	res := &sim.Result{Trace: tr, FramesProcessed: frames, MinBumperGap: math.Inf(1)}

	nextRateUpdate := 0.0
	steps := int(math.Round(cfg.Duration / cfg.Dt))
	for step := 0; step <= steps; step++ {
		t := float64(step) * cfg.Dt

		// Ground truth for this instant.
		egoAgent := egoState.ToAgent(cfg.Road, world.EgoID, cfg.EgoParams)
		egoAgent.Accel = appliedAccel
		actorAgents := make([]world.Agent, len(actors))
		for i, a := range actors {
			actorAgents[i] = a.state.ToAgent(cfg.Road, a.spec.ID, a.spec.Params)
		}

		// Collision detection.
		if res.Collision == nil {
			egoBox := egoAgent.BBox()
			for _, a := range actorAgents {
				if egoBox.Intersects(a.BBox()) {
					res.Collision = &trace.Collision{Time: t, ActorID: a.ID}
					break
				}
			}
		}
		if res.Collision != nil && cfg.StopOnCollision {
			break
		}

		// Closest-approach bookkeeping.
		legacyUpdateMinGap(res, cfg.Road, egoState, egoAgent, actorAgents)

		// Camera frames due at this step.
		for _, cam := range rig {
			if t+1e-9 < nextFrame[cam.Name] {
				continue
			}
			pipe.ProcessFrame(cam, t, egoAgent, actorAgents)
			frames[cam.Name]++
			rate := rates[cam.Name]
			if rate <= 0 {
				rate = 1
			}
			next := nextFrame[cam.Name] + 1/rate
			if next <= t {
				next = t + 1/rate
			}
			nextFrame[cam.Name] = next
		}

		// Perceived world model and planning.
		wm := pipe.WorldModel(t)
		dec := pl.Plan(egoState, cfg.EgoParams, wm)
		appliedAccel = cfg.EgoParams.ClampAccel(dec.Accel, egoState.Speed)
		egoAgent.Accel = appliedAccel

		// Dynamic rate control.
		if cfg.RateController != nil && t+1e-9 >= nextRateUpdate {
			for name, r := range cfg.RateController.Rates(t, egoAgent, wm) {
				if _, ok := rates[name]; ok && r > 0 {
					rates[name] = r
				}
			}
			nextRateUpdate = t + cfg.RateEpoch
		}

		// Record.
		var rowRates map[string]float64
		if cfg.RateController != nil {
			rowRates = legacySnapshotRates(rates)
		}
		tr.Rows = append(tr.Rows, trace.Row{
			Time:     t,
			Ego:      egoAgent,
			Actors:   actorAgents,
			CmdAccel: appliedAccel,
			AEB:      dec.AEB,
			Rates:    rowRates,
		})

		// Advance dynamics.
		egoState.Accel = appliedAccel
		egoState.StepInPlace(cfg.Dt)
		if egoState.Speed == 0 {
			res.EgoStopped = true
		}
		ctx := behavior.Context{Time: t, Road: cfg.Road, Ego: egoState}
		for _, a := range actors {
			if a.spec.Script != nil {
				a.spec.Script.StepInto(&ctx, &a.state, cfg.Dt)
			} else {
				a.state.StepInPlace(cfg.Dt)
			}
		}
	}

	if res.Collision != nil {
		tr.Collision = res.Collision
	}
	return res, nil
}

// goldenPoints are the (FPR, seed) samples each scenario is pinned at:
// the highest and a low Table-1 rate, with differing jitter seeds.
var goldenPoints = []struct {
	fpr  float64
	seed int64
}{{30, 1}, {3, 2}}

func traceBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("serialize trace: %v", err)
	}
	return buf.Bytes()
}

// TestSteppableCoreMatchesFrozenRun pins the refactored stage pipeline
// to the frozen pre-refactor loop: byte-identical trace serializations
// and identical summaries for every registered scenario. This is the
// proof that sim.Version does not need to bump.
func TestSteppableCoreMatchesFrozenRun(t *testing.T) {
	for _, sc := range scenario.Default().List() {
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			for _, pt := range goldenPoints {
				want, err := legacyRun(sc.Build(pt.fpr, pt.seed))
				if err != nil {
					t.Fatalf("fpr %g seed %d: legacy run: %v", pt.fpr, pt.seed, err)
				}
				got, err := sim.Run(sc.Build(pt.fpr, pt.seed))
				if err != nil {
					t.Fatalf("fpr %g seed %d: steppable run: %v", pt.fpr, pt.seed, err)
				}
				wb, gb := traceBytes(t, want.Trace), traceBytes(t, got.Trace)
				if !bytes.Equal(wb, gb) {
					t.Errorf("fpr %g seed %d: trace serialization differs (%d vs %d bytes)",
						pt.fpr, pt.seed, len(gb), len(wb))
					for i := range want.Trace.Rows {
						if i < len(got.Trace.Rows) && !reflect.DeepEqual(want.Trace.Rows[i], got.Trace.Rows[i]) {
							t.Errorf("first divergent row %d (t=%.2f)", i, want.Trace.Rows[i].Time)
							break
						}
					}
				}
				if !reflect.DeepEqual(want.Collision, got.Collision) {
					t.Errorf("fpr %g seed %d: collision %+v, want %+v", pt.fpr, pt.seed, got.Collision, want.Collision)
				}
				if !reflect.DeepEqual(want.FramesProcessed, got.FramesProcessed) {
					t.Errorf("fpr %g seed %d: frames %v, want %v", pt.fpr, pt.seed, got.FramesProcessed, want.FramesProcessed)
				}
				if want.MinBumperGap != got.MinBumperGap || want.EgoStopped != got.EgoStopped {
					t.Errorf("fpr %g seed %d: summary (gap %v stopped %v), want (gap %v stopped %v)",
						pt.fpr, pt.seed, got.MinBumperGap, got.EgoStopped, want.MinBumperGap, want.EgoStopped)
				}
			}
		})
	}
}

// TestSteppableCoreMatchesFrozenRunUnderRateControl covers the
// dynamic-rate path (per-row Rates maps) the registered scenarios
// don't exercise.
func TestSteppableCoreMatchesFrozenRunUnderRateControl(t *testing.T) {
	sc, ok := scenario.ByName(scenario.CutOutFast)
	if !ok {
		t.Fatal("cut-out-fast not registered")
	}
	cfg := sc.Build(30, 3)
	cfg.RateController = uniformRates{sensor.Front120: 12, sensor.Left: 4}
	want, err := legacyRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := sc.Build(30, 3)
	cfg2.RateController = uniformRates{sensor.Front120: 12, sensor.Left: 4}
	got, err := sim.Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(traceBytes(t, want.Trace), traceBytes(t, got.Trace)) {
		t.Error("rate-controlled trace serialization differs")
	}
}

type uniformRates map[string]float64

func (u uniformRates) Rates(float64, world.Agent, []world.Agent) map[string]float64 { return u }

// TestSummaryLevelsMatchFullSummary proves the recording levels change
// only what is materialized, never what is computed: Summary and Off
// runs report the exact summary of the Full run.
func TestSummaryLevelsMatchFullSummary(t *testing.T) {
	for _, sc := range scenario.Default().List(scenario.TagTable1) {
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			full, err := sim.Run(sc.Build(3, 1))
			if err != nil {
				t.Fatal(err)
			}
			for _, lvl := range []trace.Level{trace.LevelSummary, trace.LevelOff} {
				cfg := sc.Build(3, 1)
				cfg.Record = lvl
				got, err := sim.Run(cfg)
				if err != nil {
					t.Fatalf("%v run: %v", lvl, err)
				}
				if got.Level != lvl {
					t.Errorf("result level = %v, want %v", got.Level, lvl)
				}
				if !reflect.DeepEqual(full.Collision, got.Collision) ||
					full.MinBumperGap != got.MinBumperGap ||
					full.EgoStopped != got.EgoStopped ||
					!reflect.DeepEqual(full.FramesProcessed, got.FramesProcessed) {
					t.Errorf("%v summary diverges from full: %+v", lvl, got)
				}
				switch lvl {
				case trace.LevelSummary:
					if got.Trace == nil || len(got.Trace.Rows) != 0 {
						t.Errorf("summary trace = %+v, want header-only", got.Trace)
					}
					if got.Trace != nil && !reflect.DeepEqual(got.Trace.Meta, full.Trace.Meta) {
						t.Errorf("summary meta %+v, want %+v", got.Trace.Meta, full.Trace.Meta)
					}
					if got.Trace != nil && !reflect.DeepEqual(got.Trace.Collision, full.Collision) {
						t.Errorf("summary trace collision %+v, want %+v", got.Trace.Collision, full.Collision)
					}
				case trace.LevelOff:
					if got.Trace != nil {
						t.Errorf("off-level trace = %+v, want nil", got.Trace)
					}
				}
			}
		})
	}
}

// benchLegacyConfig mirrors the internal benchConfig scenario for the
// legacy-loop comparison benchmark (sim_test cannot reach the internal
// helper).
func benchLegacyConfig() sim.Config {
	speed := units.MPHToMPS(60)
	return sim.Config{
		Name:         "bench",
		Road:         road.NewStraight(3, 5000),
		EgoParams:    vehicle.Car(),
		EgoInit:      vehicle.FrenetState{S: 0, D: 3.5, Speed: speed},
		DesiredSpeed: speed,
		Duration:     20,
		FPR:          30,
		Perception:   cleanBenchPerception(),
		Seed:         1,
		Actors: []sim.ActorSpec{
			{ID: "lead", Params: vehicle.Car(), Init: vehicle.FrenetState{S: 60, D: 3.5, Speed: speed * 0.8}},
			{ID: "neighbor", Params: vehicle.Car(), Init: vehicle.FrenetState{S: 30, D: 7.0, Speed: speed * 0.9}},
		},
		StopOnCollision: true,
	}
}

func cleanBenchPerception() perception.Config {
	cfg := perception.DefaultConfig()
	cfg.DetectProb = 1
	cfg.PosNoise = 0
	cfg.VelNoise = 0
	return cfg
}

// BenchmarkStepLegacyLoop runs the frozen pre-refactor loop on the
// same scenario as BenchmarkStep/full: the allocs/op delta is the
// refactor's allocation diet (per-step ground-truth slices, world
// models, and visibility scratch eliminated).
func BenchmarkStepLegacyLoop(b *testing.B) {
	cfg := benchLegacyConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := legacyRun(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
