// Package sim is the closed-loop driving simulator: scripted actors and
// the AV stack (camera rig → perception at a configurable per-camera
// frame processing rate → planner → vehicle dynamics) advance on a fixed
// 10 ms step with oriented-bounding-box collision detection, recording a
// trace of every time-step.
//
// It substitutes for the paper's NVIDIA DriveSim + AV-stack testbed (see
// DESIGN.md): the property the experiments need is that the closed-loop
// collision outcome depends on the configured frame processing rate,
// which it does here through perception staleness and K-frame actor
// confirmation.
//
// # Steppable core
//
// The simulator is a Simulation value advanced one time-step at a time:
// New(cfg) validates and positions it before step 0, Step() runs one
// fixed-dt instant through the stage pipeline and reports whether
// steps remain, and Result() returns the outcome. Run is the
// convenience loop over exactly that API. Each step executes the stages
// in order:
//
//	ground truth → collision check → camera schedule → perception →
//	planning → rate control → record → dynamics
//
// # Recording levels
//
// Config.Record selects how much of the run is materialized
// (trace.LevelFull / LevelSummary / LevelOff). Summary consumers — MRF
// collision waves, campaign servers streaming per-point summaries,
// corpus sweeps — skip the per-step row recording entirely, which is
// the dominant allocation of a run; the summary fields (collision, min
// bumper gap, frames processed, ego stopped) are computed at every
// level. Only LevelFull results are archivable by the persistent store.
package sim

import (
	"fmt"

	"repro/internal/behavior"
	"repro/internal/perception"
	"repro/internal/planner"
	"repro/internal/road"
	"repro/internal/sensor"
	"repro/internal/trace"
	"repro/internal/vehicle"
	"repro/internal/world"
)

// Version identifies the simulator's behavioral revision. The
// persistent run store keys archived traces on it, so any change to
// simulation semantics (integration step, perception model, planner
// defaults, collision handling) must bump it — otherwise replay would
// diff traces recorded under different dynamics and report false
// divergences (or, worse, serve stale disk results as cache hits).
const Version = "sim-v1"

// ActorSpec describes one scripted actor.
type ActorSpec struct {
	ID     string
	Params vehicle.Params
	Init   vehicle.FrenetState
	Script *behavior.Script // nil: cruise at the initial speed (or stay static)
}

// RateController adjusts per-camera processing rates at runtime. The
// Zhuyi-based work prioritizer in internal/safety implements this; a nil
// controller means fixed rates.
type RateController interface {
	// Rates returns the desired FPR per camera name given the current
	// perceived world model. Cameras absent from the result keep their
	// previous rate. The wm slice is scratch the simulator reuses
	// between invocations: copy it if the controller retains state
	// across calls.
	Rates(now float64, ego world.Agent, wm []world.Agent) map[string]float64
}

// Config describes one simulation run.
type Config struct {
	Name         string
	Road         *road.Road
	EgoInit      vehicle.FrenetState
	EgoParams    vehicle.Params
	DesiredSpeed float64
	Planner      *planner.Config // nil: DefaultConfig(DesiredSpeed, EgoParams)
	Actors       []ActorSpec

	Duration float64 // s
	Dt       float64 // s; 0 defaults to 0.01

	Rig        sensor.Rig // nil: sensor.DefaultRig()
	Perception perception.Config
	FPR        float64 // uniform initial per-camera rate, frames/s

	RateController RateController
	RateEpoch      float64 // controller invocation period, s; 0 defaults to 0.1

	// Record selects the trace recording level. The zero value is
	// trace.LevelFull (every row, archivable); LevelSummary and
	// LevelOff skip row materialization for summary-only consumers.
	Record trace.Level

	Seed            int64
	StopOnCollision bool
}

// Result is the outcome of a run.
type Result struct {
	// Trace is the recorded execution: all rows at trace.LevelFull,
	// header-only (Meta and Collision, no rows) at LevelSummary, nil at
	// LevelOff and on a store summary (store.Entry.Result).
	Trace           *trace.Trace
	Collision       *trace.Collision
	FramesProcessed map[string]int
	MinBumperGap    float64 // closest longitudinal approach to any in-corridor actor, m
	EgoStopped      bool    // the ego came to a complete stop at least once
	// ArchivedRows is a store summary's row count (store.Entry.Result):
	// its rows stay on disk. A store-attached engine answers every
	// plain point with such a summary, fresh runs included, and with
	// the same summary of a run the store refused; read the rows
	// through Engine.Trace. 0 on a result that carries its trace.
	ArchivedRows int
	// Level is the recording level the run executed at. The persistent
	// store refuses to archive anything but trace.LevelFull.
	Level trace.Level
}

// Collided reports whether the run ended in a collision.
func (r *Result) Collided() bool { return r.Collision != nil }

// Run executes the scenario to completion and returns the recorded
// result: the convenience loop over New / Step / Result.
func Run(cfg Config) (*Result, error) { return RunInto(cfg, nil) }

// RunInto is Run recording a LevelFull run's rows into buf, reusing
// its storage instead of allocating a new row array; a nil buf
// allocates, as Run does. The result's trace aliases buf, so buf may
// record the next run only once nothing reads this result's rows.
// Other levels leave buf untouched.
func RunInto(cfg Config, buf *trace.RowBuffer) (*Result, error) {
	s, err := newSimulation(cfg, buf)
	if err != nil {
		return nil, err
	}
	for s.Step() {
	}
	return s.Result(), nil
}

// ValidateConfig checks a configuration the same way Run does —
// road/duration/rate sanity, duplicate actor IDs — without running it.
// Defaults (dt, rig, perception, rate epoch) are applied to a copy, so
// the caller's configuration is not mutated. Scenario tooling uses this
// to vet generated corpora cheaply.
func ValidateConfig(cfg Config) error { return validate(&cfg) }

func validate(cfg *Config) error {
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
	if cfg.Record > trace.LevelOff {
		return fmt.Errorf("sim: invalid recording level %d", cfg.Record)
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

func plannerConfig(cfg Config) planner.Config {
	if cfg.Planner != nil {
		return *cfg.Planner
	}
	return planner.DefaultConfig(cfg.DesiredSpeed, cfg.EgoParams)
}
