package sim

import (
	"math"

	"repro/internal/behavior"
	"repro/internal/perception"
	"repro/internal/planner"
	"repro/internal/trace"
	"repro/internal/vehicle"
	"repro/internal/world"
)

// actorRT is one scripted actor's runtime state.
type actorRT struct {
	spec  ActorSpec
	state vehicle.FrenetState
}

// stage is one named phase of a simulation step. Stages run in
// pipeline order; a stage that finishes the run (collision with
// StopOnCollision) short-circuits the rest of the step.
type stage struct {
	name string
	run  func(*Simulation)
}

// pipeline is the per-step stage order. Method values carry no
// closure state, so building the table allocates nothing per step.
func pipeline() []stage {
	return []stage{
		{"ground-truth", (*Simulation).stageGroundTruth},
		{"collision-check", (*Simulation).stageCollision},
		{"camera-schedule", (*Simulation).stageCameras},
		{"perception", (*Simulation).stagePerception},
		{"planning", (*Simulation).stagePlanning},
		{"rate-control", (*Simulation).stageRateControl},
		{"record", (*Simulation).stageRecord},
		{"dynamics", (*Simulation).stageDynamics},
	}
}

// StageNames lists the per-step stage pipeline in execution order.
func StageNames() []string {
	stages := pipeline()
	names := make([]string, len(stages))
	for i, st := range stages {
		names[i] = st.name
	}
	return names
}

// Simulation is a closed-loop run advanced one fixed-dt step at a
// time. Construct with New, drive with Step until it reports false
// (or Done), and read the outcome with Result. The per-step
// accessors (Time, Ego, Actors, WorldModel, Rates) expose the live
// state between steps, which is the seam stage plug-ins — perception
// monitors, latency models, alternative planners — observe the run
// through without waiting for a finished trace.
//
// The ground-truth scene and everything derived from it alone (the
// collision sweep, the min-gap candidate, camera cones, occlusion,
// per-camera visibility) live in a stepShare that every stage of the
// step reads from.
//
// A Simulation is single-goroutine; the engine provides concurrency
// across runs, not within one.
type Simulation struct {
	cfg    Config
	stages []stage

	pl   *planner.Planner
	pipe *perception.Pipeline

	res *Result
	tr  *trace.Trace

	egoState     vehicle.FrenetState
	appliedAccel float64
	actors       []actorRT

	// Per-camera state, indexed like cfg.Rig; camNames mirrors the rig
	// names for map materialization at the API boundary.
	camNames    []string
	rateVals    []float64
	nextFrame   []float64 // next frame due per rig camera, s
	frameCounts []int
	framesView  map[string]int // Result's map view, refreshed on Result()

	// Footprint radius bound (world.FootprintRadiusBound) of the ego
	// for the collision pre-filter, fixed per run.
	egoDiag float64

	steps, step    int
	done           bool
	nextRateUpdate float64

	// sh is the step's compute-once context, reset by the ground-truth
	// stage at every step.
	sh *stepShare

	// Per-step working state, valid between stages of the current step.
	t          float64
	egoAgent   world.Agent
	bctx       behavior.Context // reusable scripted-dynamics context
	dec        planner.Decision
	wm         []world.Agent // perceived world model scratch, reused
	actorsView []world.Agent // materialized ground-truth rows (lazy off LevelFull)
	actorsLive bool          // actorsView matches the current step's frame

	// rowActors is the LevelFull per-row actor storage: one backing
	// array carved into a disjoint sub-slice per recorded row, so the
	// hot loop never allocates per step while every row still owns its
	// actor states.
	rowActors []world.Agent
	// scratch is the Summary/Off ground-truth view buffer, materialized
	// only when Actors() is called (no rows retain it).
	scratch []world.Agent
}

// New validates the configuration and returns a simulation positioned
// before step 0. Defaults (dt, rig, perception, rate epoch) are
// applied to the simulation's private copy of cfg.
func New(cfg Config) (*Simulation, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}

	s := &Simulation{
		cfg:    cfg,
		stages: pipeline(),
		pl:     planner.New(plannerConfig(cfg), cfg.Road),
		pipe:   perception.NewPipeline(cfg.Perception, cfg.Seed),

		egoState: cfg.EgoInit,
		actors:   make([]actorRT, len(cfg.Actors)),

		camNames:    cfg.Rig.Names(),
		rateVals:    make([]float64, len(cfg.Rig)),
		nextFrame:   make([]float64, len(cfg.Rig)),
		frameCounts: make([]int, len(cfg.Rig)),
		framesView:  make(map[string]int, len(cfg.Rig)),

		steps: int(math.Round(cfg.Duration / cfg.Dt)),
	}
	s.egoDiag = world.FootprintRadiusBound(cfg.EgoParams.Length, cfg.EgoParams.Width)
	for i, spec := range cfg.Actors {
		s.actors[i] = actorRT{spec: spec, state: spec.Init}
	}
	for ci := range cfg.Rig {
		s.rateVals[ci] = cfg.FPR
	}
	s.sh = newStepShare(cfg.Rig, len(cfg.Actors))

	if cfg.Record != trace.LevelOff {
		s.tr = &trace.Trace{Meta: trace.Meta{
			Scenario: cfg.Name,
			FPR:      cfg.FPR,
			Seed:     cfg.Seed,
			Dt:       cfg.Dt,
			Cameras:  cfg.Rig.Names(),
		}}
	}
	if cfg.Record == trace.LevelFull {
		s.tr.Rows = make([]trace.Row, 0, s.steps+1)
		s.rowActors = make([]world.Agent, (s.steps+1)*len(s.actors))
	} else {
		s.scratch = make([]world.Agent, 0, len(s.actors))
	}
	s.res = &Result{
		Trace:           s.tr,
		FramesProcessed: s.framesView,
		MinBumperGap:    math.Inf(1),
		Level:           cfg.Record,
	}
	return s, nil
}

// Step advances the simulation by one time-step, running the stage
// pipeline for the current instant. It reports whether more steps
// remain; it is a no-op returning false once the run has finished.
func (s *Simulation) Step() bool {
	if s.done {
		return false
	}
	s.t = float64(s.step) * s.cfg.Dt
	for _, st := range s.stages {
		st.run(s)
		if s.done {
			return false
		}
	}
	s.step++
	if s.step > s.steps {
		s.done = true
	}
	return !s.done
}

// Done reports whether the run has finished: every step executed, or a
// collision ended it under StopOnCollision.
func (s *Simulation) Done() bool { return s.done }

// Result returns the run outcome. It may be read mid-run (external
// drivers that stop early still get a coherent summary); the trace
// mirror of the collision and the frames-processed view are refreshed
// on every call.
func (s *Simulation) Result() *Result {
	for ci, name := range s.camNames {
		// Cameras that processed no frames stay absent, matching the
		// increment-on-first-frame map the result historically carried.
		if s.frameCounts[ci] > 0 {
			s.framesView[name] = s.frameCounts[ci]
		}
	}
	if s.tr != nil {
		s.tr.Collision = s.res.Collision
	}
	return s.res
}

// Time returns the simulation time of the next step to execute (or,
// mid-pipeline, of the executing step).
func (s *Simulation) Time() float64 { return float64(s.step) * s.cfg.Dt }

// StepIndex returns the index of the next step to execute.
func (s *Simulation) StepIndex() int { return s.step }

// Steps returns the total step count of a full-length run (the final
// step index is Steps, giving Steps+1 recorded instants).
func (s *Simulation) Steps() int { return s.steps }

// Ego returns the ego's ground-truth agent state as of the most
// recently executed ground-truth stage.
func (s *Simulation) Ego() world.Agent { return s.egoAgent }

// Actors returns the ground-truth actor states of the current step,
// materialized lazily from the frame at summary levels. The slice is
// live simulation state: read, don't hold.
func (s *Simulation) Actors() []world.Agent {
	if !s.actorsLive {
		s.actorsView = s.sh.frame.AppendAgents(s.scratch[:0])
		s.actorsLive = true
	}
	return s.actorsView
}

// WorldModel returns the perceived world model of the current step.
// The slice is scratch the simulation reuses: read, don't hold.
func (s *Simulation) WorldModel() []world.Agent { return s.wm }

// Rates returns a snapshot of the per-camera operating rates.
func (s *Simulation) Rates() map[string]float64 { return s.ratesMap() }

// ratesMap materializes the per-camera rate slice as a name-keyed map
// (the API/trace-row boundary representation).
func (s *Simulation) ratesMap() map[string]float64 {
	m := make(map[string]float64, len(s.camNames))
	for ci, name := range s.camNames {
		m[name] = s.rateVals[ci]
	}
	return m
}

// stageGroundTruth resets the step share, materializes the ground-truth
// scene for this instant into it, and derives the ego agent carrying
// the previously applied acceleration.
func (s *Simulation) stageGroundTruth() {
	sh := s.sh
	sh.beginStep(len(s.actors))
	sh.ensureGround(s)
	s.egoAgent = sh.egoAgent
	s.egoAgent.Accel = s.appliedAccel

	if s.cfg.Record == trace.LevelFull {
		// Carve this row's disjoint slice out of the preallocated
		// backing array; the record stage hands it to the trace row.
		base := s.step * len(s.actors)
		s.actorsView = sh.frame.AppendAgents(s.rowActors[base : base : base+len(s.actors)])
		s.actorsLive = true
	} else {
		// Summary levels materialize rows only if Actors() asks.
		s.actorsLive = false
	}
}

// stageCollision detects the first ego collision, ends the run if
// configured to stop on it, and maintains the closest-approach
// bookkeeping. The sweeps run once per instant in the step share.
func (s *Simulation) stageCollision() {
	sh := s.sh
	if s.res.Collision == nil {
		sh.ensureCollision(s.egoDiag)
		if sh.collided {
			s.res.Collision = sh.collision(s.t)
		}
	}
	if s.res.Collision != nil && s.cfg.StopOnCollision {
		s.done = true
		return
	}
	sh.ensureMinGap(s)
	if sh.stepMinGap < s.res.MinBumperGap {
		s.res.MinBumperGap = sh.stepMinGap
	}
}

// stageCameras processes every camera frame due at this instant and
// advances each camera's schedule by its current operating rate. The
// cone table and occlusion memo come from the step share, so the
// cameras due at one instant update the cones once.
func (s *Simulation) stageCameras() {
	sh := s.sh
	for ci := range s.cfg.Rig {
		if s.t+1e-9 < s.nextFrame[ci] {
			continue
		}
		s.pipe.ProcessFrameIdx(sh.ensureCones(), ci, s.t, sh.frame, sh.visibleIdx(ci))
		s.frameCounts[ci]++
		rate := s.rateVals[ci]
		if rate <= 0 {
			rate = 1
		}
		// Advance the schedule from the previous due time, not from t,
		// so the fixed step grid does not quantize the effective rate
		// down (e.g. a 33.3 ms interval snapping to 40 ms).
		next := s.nextFrame[ci] + 1/rate
		if next <= s.t {
			next = s.t + 1/rate
		}
		s.nextFrame[ci] = next
	}
}

// stagePerception coasts every confirmed track to this instant,
// producing the perceived world model the planner consumes.
func (s *Simulation) stagePerception() {
	s.wm = s.pipe.WorldModelAppend(s.wm[:0], s.t)
}

// stagePlanning runs the driving policy on the perceived world and
// clamps the command to the vehicle's envelope.
func (s *Simulation) stagePlanning() {
	s.dec = s.pl.Plan(s.egoState, s.cfg.EgoParams, s.wm)
	s.appliedAccel = s.cfg.EgoParams.ClampAccel(s.dec.Accel, s.egoState.Speed)
	s.egoAgent.Accel = s.appliedAccel
}

// stageRateControl invokes the dynamic rate controller on its epoch.
func (s *Simulation) stageRateControl() {
	if s.cfg.RateController == nil || s.t+1e-9 < s.nextRateUpdate {
		return
	}
	rates := s.cfg.RateController.Rates(s.t, s.egoAgent, s.wm)
	for ci, name := range s.camNames {
		if r, ok := rates[name]; ok && r > 0 {
			s.rateVals[ci] = r
		}
	}
	s.nextRateUpdate = s.t + s.cfg.RateEpoch
}

// stageRecord appends this instant's trace row at trace.LevelFull;
// summary levels skip row materialization entirely. Per-row rates
// only exist under dynamic rate control; fixed-rate runs leave Rates
// nil and readers fall back to Meta.FPR (trace.OperatingRate).
// Recording the identical map on every row would bloat each archived
// trace by thousands of redundant entries and dominate replay decode
// time.
func (s *Simulation) stageRecord() {
	if s.cfg.Record != trace.LevelFull {
		return
	}
	var rowRates map[string]float64
	if s.cfg.RateController != nil {
		rowRates = s.ratesMap()
	}
	s.tr.Rows = append(s.tr.Rows, trace.Row{
		Time:     s.t,
		Ego:      s.egoAgent,
		Actors:   s.actorsView,
		CmdAccel: s.appliedAccel,
		AEB:      s.dec.AEB,
		Rates:    rowRates,
	})
}

// stageDynamics integrates the ego and every scripted actor forward
// one dt.
func (s *Simulation) stageDynamics() {
	s.egoState.Accel = s.appliedAccel
	s.egoState.StepInPlace(s.cfg.Dt)
	if s.egoState.Speed == 0 {
		s.res.EgoStopped = true
	}
	// bctx lives on the Simulation so taking its address does not force
	// a per-step heap allocation (Script.StepInto takes a pointer).
	s.bctx.Time = s.t
	s.bctx.Road = s.cfg.Road
	s.bctx.Ego = s.egoState
	for i := range s.actors {
		a := &s.actors[i]
		if a.spec.Script != nil {
			a.spec.Script.StepInto(&s.bctx, &a.state, s.cfg.Dt)
		} else {
			a.state.StepInPlace(s.cfg.Dt)
		}
	}
}
