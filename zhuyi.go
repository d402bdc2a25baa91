// Package zhuyi is the public facade of this repository: a Go
// reproduction of "Zhuyi: Perception Processing Rate Estimation for
// Safety in Autonomous Vehicles" (Hsiao et al., DAC 2022,
// arXiv:2205.03347).
//
// Zhuyi estimates, from the kinematic state of the ego vehicle and the
// (predicted) trajectories of surrounding actors, the maximum tolerable
// perception latency per actor and the minimum safe frame processing
// rate (FPR) per camera. This package re-exports the core model and the
// high-level entry points; the substrates (simulator, perception stack,
// planner, scenarios) live under internal/.
//
// Quick start:
//
//	est := zhuyi.NewEstimator()
//	res, _ := zhuyi.RunScenario(zhuyi.ScenarioCutOutFast, 30, 1)
//	off, _ := est.EvaluateTrace(res.Trace, zhuyi.OfflineOptions{})
//	fmt.Println(off.MaxFPR(), off.MaxSumFPR())
//
// # Running campaigns
//
// The paper's validation protocol is a batch of seeded closed-loop
// runs over (scenario, FPR, seed) points. Campaign submits such a
// batch to the run engine the caller built with NewEngine: points
// execute concurrently on its worker pool (GOMAXPROCS by default),
// results are cached by point, a repeated or overlapping campaign never
// re-simulates a point the engine already ran, and the first failure
// cancels the still-queued remainder:
//
//	eng := zhuyi.NewEngine(zhuyi.EngineOptions{})
//	var points []zhuyi.CampaignPoint
//	for _, name := range zhuyi.Scenarios() {
//		for seed := int64(1); seed <= 10; seed++ {
//			points = append(points, zhuyi.CampaignPoint{Scenario: name, FPR: 30, Seed: seed})
//		}
//	}
//	res, err := zhuyi.Campaign(ctx, eng, points)
//	if err != nil { ... }
//	fmt.Println(res.Stats.Executed, res.Stats.CacheHits, res.Stats.Wall)
//	for _, o := range res.Outcomes {
//		fmt.Println(o.Point.Scenario, o.Point.Seed, o.Result.Collided())
//	}
//
// FindMRF, SearchScenarios and PointTrace take the same engine, so a
// library campaign, an MRF search and a trace read in one process
// share their simulations. Build one engine per process and pass it
// everywhere.
//
// Campaigns that only read run summaries — collision outcomes, minimum
// bumper gaps — can skip trace materialization entirely by running on
// an engine with a summary recording level (the dominant allocation of
// a run; see BENCH_sim.json):
//
//	eng := zhuyi.NewEngine(zhuyi.EngineOptions{Record: zhuyi.RecordSummary})
//	res, err := zhuyi.Campaign(ctx, eng, points) // Result.Trace carries no rows
//
// Engines with a persistent store always record archivable points at
// RecordFull — the store refuses anything less — but keep no rows: a
// point such an engine answers, whether from the store or from a fresh
// run it has just archived, carries its run summary and row count but
// no rows (Result.Trace is nil), and the run's row storage is reused
// by the next one. PointTrace reads the rows on demand, on any engine:
//
//	tr, err := zhuyi.PointTrace(ctx, eng, zhuyi.CampaignPoint{Scenario: zhuyi.ScenarioCutIn, FPR: 30, Seed: 1})
//
// # Generating scenario corpora
//
// The nine Table-1 scenarios are registry entries compiled from
// declarative specs; the same machinery generates arbitrarily large
// scenario corpora. GenerateScenarios samples spec families (cut-in,
// cut-out, following, crossing, benign activity) deterministically from
// a seed; RegisterScenario makes a spec addressable by name, after
// which campaigns, MRF searches, and RunScenario accept it like a
// built-in — and the engine caches its runs under its spec fingerprint:
//
//	var points []zhuyi.CampaignPoint
//	specs, err := zhuyi.GenerateScenarios(zhuyi.GenOptions{Seed: 1}, 50)
//	for _, sp := range specs {
//		if err := zhuyi.RegisterScenario(sp); err != nil { ... }
//		for seed := int64(1); seed <= 3; seed++ {
//			points = append(points, zhuyi.CampaignPoint{Scenario: sp.Name, FPR: 10, Seed: seed})
//		}
//	}
//	res, err := zhuyi.Campaign(ctx, eng, points)
//
// The corpus-sweep experiment (internal/experiments.CorpusSweep, or
// `experiments -exp corpus`) builds on the same generator to measure
// the minimum-required-FPR distribution over generated corpora.
//
// # Remote campaigns
//
// `zhuyi serve` exposes the same stack as an HTTP campaign service
// (internal/server, endpoint reference in docs/api.md), and Client is
// its typed Go client: the same CampaignPoint values run against a
// remote server, with outcomes streamed back as each point completes.
// Remote outcomes carry run summaries, not traces (Result.Trace is
// nil):
//
//	cl := zhuyi.NewClient("http://127.0.0.1:8080")
//	res, err := cl.Campaign(ctx, points)
//	stats, _ := cl.Stats(ctx) // fresh vs memory vs disk evidence
//
// Where the layers sit — core model, simulator, scenarios, engine,
// store/replay, server, CLIs — and how one campaign point flows
// through them is documented in ARCHITECTURE.md.
package zhuyi

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/predict"
	"repro/internal/safety"
	"repro/internal/scenario"
	"repro/internal/search"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/world"
)

// Re-exported core types. See internal/core for full documentation.
type (
	// Params are the Zhuyi model parameters (paper §4.1 defaults via
	// DefaultParams).
	Params = core.Params
	// Estimator orchestrates the model over world snapshots.
	Estimator = core.Estimator
	// Estimate is the per-instant output: per-actor latencies and
	// per-camera FPR requirements.
	Estimate = core.Estimate
	// LatencyResult is the per-trajectory tolerable-latency search
	// output.
	LatencyResult = core.LatencyResult
	// OfflineOptions configures pre-deployment trace evaluation.
	OfflineOptions = core.OfflineOptions
	// OfflineResult is the evaluated per-camera series of a trace.
	OfflineResult = core.OfflineResult
	// SweepResult is the Figure-8 sensitivity grid.
	SweepResult = core.SweepResult
	// Trace is a recorded scenario execution.
	Trace = trace.Trace
	// RunResult is a closed-loop simulation outcome.
	RunResult = sim.Result
	// MRF is a minimum-required-FPR search result.
	MRF = metrics.MRF
	// RecordLevel selects how much of a run the simulator materializes
	// (see internal/trace.Level): RecordFull keeps every time-step row,
	// RecordSummary and RecordOff skip row recording for summary-only
	// campaigns while still computing collision/min-gap/frame summaries.
	RecordLevel = trace.Level
)

// Scene and future re-exports: the inputs of an online or snapshot
// estimate. See internal/world and internal/geom.
type (
	// Agent is one vehicle's kinematic state: pose, speed, acceleration
	// and footprint.
	Agent = world.Agent
	// Pose is a world-frame position and heading (radians).
	Pose = geom.Pose
	// Vec2 is a world-frame point or vector in meters.
	Vec2 = geom.Vec2
	// Trajectory is one timed future of an actor with its probability.
	Trajectory = world.Trajectory
	// TrajectoryPoint is one timed state of a Trajectory.
	TrajectoryPoint = world.TrajectoryPoint
	// MultiHypothesis is the maneuver-based trajectory predictor the
	// online estimate (Estimator.EstimateOnline) draws futures from.
	MultiHypothesis = predict.MultiHypothesis
)

// EgoID is the ego vehicle's Agent.ID.
const EgoID = world.EgoID

// Camera names of the paper's three analyzed cameras, the keys of an
// Estimate's per-camera maps.
const (
	CameraFront120 = sensor.Front120
	CameraLeft     = sensor.Left
	CameraRight    = sensor.Right
)

// NewDemand counts the model's own operations for a scene of the given
// actor and trajectory counts (§4.2).
func NewDemand(actors, trajectories int, p Params) core.Demand {
	return core.NewDemand(actors, trajectories, p)
}

// Trace recording levels. Configure an engine's level via
// EngineOptions.Record — e.g. NewEngine(EngineOptions{Record:
// RecordSummary}) for campaigns that only read summaries; engines with
// a persistent store always record archivable points at RecordFull,
// then answer with their archived summaries.
const (
	RecordFull    = trace.LevelFull
	RecordSummary = trace.LevelSummary
	RecordOff     = trace.LevelOff
)

// Aggregation modes for Equation 4.
const (
	AggPessimistic = core.AggPessimistic
	AggMean        = core.AggMean
	AggPercentile  = core.AggPercentile
)

// Scenario names from the paper's Table 1.
const (
	ScenarioCutOut                 = scenario.CutOut
	ScenarioCutOutFast             = scenario.CutOutFast
	ScenarioCutIn                  = scenario.CutIn
	ScenarioChallengingCutIn       = scenario.ChallengingCutIn
	ScenarioChallengingCutInCurved = scenario.ChallengingCutInCurved
	ScenarioVehicleFollowing       = scenario.VehicleFollowing
	ScenarioFrontRightActivity1    = scenario.FrontRightActivity1
	ScenarioFrontRightActivity2    = scenario.FrontRightActivity2
	ScenarioFrontRightActivity3    = scenario.FrontRightActivity3
)

// DefaultParams returns the paper's §4.1 model parameters.
func DefaultParams() Params { return core.DefaultParams() }

// NewEstimator builds an estimator with the paper's defaults: the
// five-camera rig, the analyzed camera subset, and 99th-percentile
// aggregation.
func NewEstimator() *Estimator { return core.NewEstimator() }

// Scenarios lists the nine validation scenario names in Table-1 order.
func Scenarios() []string { return scenario.Names() }

// RegisteredScenarios lists every scenario name the registry resolves,
// optionally filtered to names carrying all the given tags (e.g.
// "table1", "variant", "generated").
func RegisteredScenarios(tags ...string) []string { return scenario.Default().Names(tags...) }

// Scenario spec and generator re-exports. See internal/scenario for
// the full Spec language and family documentation.
type (
	// ScenarioSpec is a declarative, parameterized scenario that
	// compiles to a simulator configuration per (FPR, seed).
	ScenarioSpec = scenario.Spec
	// ScenarioFamily names a procedural generation family.
	ScenarioFamily = scenario.Family
	// GenOptions seeds and restricts a scenario generator.
	GenOptions = scenario.GenOptions
)

// ScenarioFamilies lists the procedural spec families.
func ScenarioFamilies() []ScenarioFamily { return scenario.Families() }

// GenerateScenarios deterministically samples n scenario specs from the
// generator options' seed and families, erroring on a family name
// outside ScenarioFamilies. The specs are valid and uniquely named;
// register them with RegisterScenario to run them by name.
func GenerateScenarios(opt GenOptions, n int) ([]ScenarioSpec, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return scenario.NewGenerator(opt).Generate(n), nil
}

// RegisterScenario adds a spec to the process-wide scenario registry,
// making it addressable by name in campaigns, MRF searches, and
// RunScenario. Names must be unique; the engine's caches key on the
// spec's content fingerprint, not on the name.
func RegisterScenario(sp ScenarioSpec) error { return scenario.RegisterSpec(sp) }

// RunScenario executes one seeded closed-loop run of a named scenario
// at a uniform per-camera frame processing rate and returns the
// recorded result. Any registered scenario resolves: the Table-1 nine,
// the ODD variants, and generated specs added via RegisterScenario.
func RunScenario(name string, fpr float64, seed int64) (*RunResult, error) {
	return RunControlled(name, fpr, seed, nil)
}

// RunControlled is RunScenario with rc setting the per-camera rates
// from the perceived world model as the run goes, as the §3.2
// Zhuyi-based system does with a NewController (UniformRates is the
// even-split baseline); fpr is the rate every camera starts at.
func RunControlled(name string, fpr float64, seed int64, rc sim.RateController) (*RunResult, error) {
	sc, ok := scenario.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("zhuyi: unknown scenario %q (see RegisteredScenarios())", name)
	}
	cfg := sc.Build(fpr, seed)
	cfg.RateController = rc
	return sim.Run(cfg)
}

// FindMRF searches a scenario's minimum required FPR on eng over the
// given rate grid and seed count (paper protocol: Table-1 grid, 10
// seeds).
func FindMRF(ctx context.Context, eng *Engine, name string, fprs []float64, seeds int) (MRF, error) {
	sc, ok := scenario.Lookup(name)
	if !ok {
		return MRF{}, fmt.Errorf("zhuyi: unknown scenario %q", name)
	}
	if len(fprs) == 0 {
		fprs = metrics.DefaultFPRGrid()
	}
	return metrics.FindMRF(ctx, eng, sc, fprs, seeds)
}

// Sweep computes the Figure-8 sensitivity grid for a fixed tolerable
// distance in meters.
func Sweep(snMeters float64) *SweepResult { return experiments.Figure8(snMeters) }

// SweepGrid computes the sensitivity grid over the given ego initial
// speeds and actor end velocities (m/s) for a tolerable distance snMeters
// and current latency l0, under the model parameters p.
func SweepGrid(ve0s, vans []float64, snMeters, l0 float64, p Params) *SweepResult {
	return core.Sweep(ve0s, vans, snMeters, l0, p)
}

// WriteSweep renders a sweep grid as the Figure-8 text heatmap.
func WriteSweep(w io.Writer, res *SweepResult) { experiments.WriteSweep(w, res) }

// SummarizeSweep counts a sweep grid's feasible, 30+ FPR and
// unavoidable cells and its street-speed maximum FPR.
func SummarizeSweep(res *SweepResult) experiments.SweepSummary { return experiments.Summarize(res) }

// AlphaZero is the steady-state confirmation-delay model (α = 0) for
// Params.Alpha; DefaultParams uses the paper's α = K·(l − l0).
const AlphaZero = core.AlphaZero

// MPHToMPS converts miles per hour to meters per second.
func MPHToMPS(mph float64) float64 { return units.MPHToMPS(mph) }

// Adversarial scenario search re-exports. See internal/search for the
// evolutionary loop and its determinism contract.
type (
	// SearchOptions budgets an adversarial scenario search: families,
	// seed, generations, population, MRF seeds and rate grid.
	SearchOptions = search.Options
	// SearchResult is a completed search: the budget that produced it
	// plus the hardest-N corpus sorted hardest first.
	SearchResult = search.Result
	// SearchCandidate is one evaluated corpus member with its MRF.
	SearchCandidate = search.Candidate
	// SearchGeneration summarizes one (family, generation) step of a
	// running search; SearchOptions.Progress receives one per step.
	SearchGeneration = search.GenerationSummary
)

// SearchScenarios evolves the configured spec families toward high
// minimum-required-FPR scenarios, scoring candidates on eng, and
// returns the hardest-N corpus. The result is a deterministic function
// of the options — same families, seed, and budget give a
// bitwise-identical corpus regardless of the engine's worker count or
// cache state. Candidates are content-named,
// so an engine with a warm persistent store rescores a repeated search
// without a single fresh simulation. Register the corpus via
// RegisterScenario to run it like built-ins.
func SearchScenarios(ctx context.Context, eng *Engine, opt SearchOptions) (*SearchResult, error) {
	return search.Search(ctx, eng, opt)
}

// Batched run-campaign re-exports. See internal/engine for the full
// scheduler and cache documentation.
type (
	// Engine is the concurrent run engine: one scheduler and one result
	// cache shared by every campaign submitted to it.
	Engine = engine.Engine
	// EngineOptions sizes the worker pool, optionally attaches a
	// persistent RunStore (the Store field) so campaigns warm-start from
	// runs archived by earlier processes, and sets the engine's trace
	// recording level (the Record field; RecordFull by default).
	EngineOptions = engine.Options
	// CampaignStats summarizes a campaign: points executed, memory and
	// disk cache hits, failures, skipped points, wall time.
	CampaignStats = engine.CampaignStats
	// RunStore is the content-addressed on-disk campaign store: ZYT1
	// binary trace artifacts plus a manifest keyed by (scenario spec
	// fingerprint, FPR, seed, sim version). See internal/store.
	RunStore = store.Store
)

// NewEngine builds a run engine. A process builds one and passes it to
// every campaign, MRF search and trace read so they share its cache.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// OpenStore opens (creating if needed) a persistent run store rooted
// at dir. Attach it to an engine via EngineOptions.Store: archived
// points then load from disk instead of simulating, and every fresh
// run is archived back. The `zhuyi record|replay|diff` subcommands
// build a differential regression workflow on the same store.
func OpenStore(dir string) (*RunStore, error) { return store.Open(dir) }

// CampaignPoint names one seeded closed-loop run.
type CampaignPoint struct {
	Scenario string
	FPR      float64
	Seed     int64
}

// CampaignOutcome pairs a point with its run result.
type CampaignOutcome struct {
	Point  CampaignPoint
	Result *RunResult
	// Source is the tier that answered the point: "fresh", "memory" or
	// "disk", the strings of PointResult.Source.
	Source string
	Err    error
}

// CampaignResult is a completed campaign: outcomes in submission order
// plus stats.
type CampaignResult struct {
	Outcomes []CampaignOutcome
	Stats    CampaignStats
}

// Campaign executes a batch of seeded runs on eng, which must not be
// nil. Points run concurrently up to the engine's worker limit; points
// already simulated — by an earlier campaign, an MRF search, or an
// experiment generator on the same engine — are served from the cache.
// The first failing run cancels the still-queued remainder, and the
// returned error joins every real failure.
func Campaign(ctx context.Context, eng *Engine, points []CampaignPoint) (*CampaignResult, error) {
	jobs := make([]engine.Job, len(points))
	for i, pt := range points {
		job, err := pointJob(pt)
		if err != nil {
			return nil, err
		}
		jobs[i] = job
	}
	batch, err := eng.RunBatch(ctx, jobs)
	res := &CampaignResult{Outcomes: make([]CampaignOutcome, len(points)), Stats: batch.Stats}
	for i, o := range batch.Outcomes {
		res.Outcomes[i] = CampaignOutcome{Point: points[i], Result: o.Result, Source: o.Source.String(), Err: o.Err}
	}
	return res, err
}

// PointTrace returns the recorded rows of one point, read through
// eng.Trace from the memory cache, the engine's store, or a fresh
// full-level run, at any engine recording level. Campaign outcomes
// answered from a store carry no rows; this is how to read them.
func PointTrace(ctx context.Context, eng *Engine, pt CampaignPoint) (*Trace, error) {
	job, err := pointJob(pt)
	if err != nil {
		return nil, err
	}
	return eng.Trace(ctx, job)
}

// pointJob resolves a point's scenario name into an engine job.
func pointJob(pt CampaignPoint) (engine.Job, error) {
	sc, ok := scenario.Lookup(pt.Scenario)
	if !ok {
		return engine.Job{}, fmt.Errorf("zhuyi: unknown scenario %q (see RegisteredScenarios())", pt.Scenario)
	}
	return engine.Job{Scenario: sc, FPR: pt.FPR, Seed: pt.Seed}, nil
}

// The Zhuyi-based AV system (§3.2) re-exports.
type (
	// Controller is the work-prioritizing per-camera rate controller.
	Controller = safety.Controller
	// ControllerConfig tunes margin, floors, caps, budget, hysteresis.
	ControllerConfig = safety.ControllerConfig
	// CheckResult is one safety-check evaluation with alarms and the
	// recommended escalation action.
	CheckResult = safety.CheckResult
	// Uncertainty is the perception-uncertainty extension (§5 future
	// work): fold measurement noise and confirmation inflation into the
	// model parameters via Apply.
	Uncertainty = core.Uncertainty
	// UniformRates splits a total rate budget evenly across cameras, the
	// baseline the Controller's prioritization is compared against.
	UniformRates = safety.UniformRates
)

// NewController builds the §3.2 rate controller over the estimator's
// cameras with a multi-hypothesis trajectory predictor.
func NewController(est *Estimator, cfg ControllerConfig) *Controller {
	return safety.NewController(
		est,
		predict.MultiHypothesis{Horizon: est.Params.Horizon, Dt: 0.1},
		cfg,
	)
}

// DefaultControllerConfig returns the controller configuration used by
// the examples and the headline experiment.
func DefaultControllerConfig() ControllerConfig { return safety.DefaultControllerConfig() }

// CheckSafety compares operating per-camera rates against a Zhuyi
// estimate (the §3.2 safety check).
func CheckSafety(est Estimate, operating map[string]float64) CheckResult {
	return safety.Check(est, operating)
}
