// Benchmarks regenerating each of the paper's tables and figures (see
// DESIGN.md §4 for the experiment index), plus ablations of the design
// choices DESIGN.md §5 calls out. Absolute wall-clock is machine-
// dependent; the custom metrics (evals/op, ops/op) tie back to the
// paper's §4.2 compute-demand analysis.
package zhuyi

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/predict"
	"repro/internal/safety"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/world"
)

// --- Table 1 ---

// BenchmarkTable1Row measures one scenario row of Table 1 at reduced
// scale (2 seeds, 3 rates): the MRF search plus offline estimates. A
// fresh 4-worker engine per iteration keeps the cache out of the
// measurement.
func BenchmarkTable1Row(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := engine.New(engine.Options{Workers: 4})
		rows, err := experiments.Table1(context.Background(), eng, experiments.Options{Seeds: 2, FPRGrid: []float64{1, 5, 30}})
		eng.Close()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 9 {
			b.Fatal("short table")
		}
	}
}

// BenchmarkMRFSearch measures the engine-backed adaptive MRF search on
// the full Table-1 grid: descending waves stop at the first colliding
// rate, so it schedules strictly fewer simulations than the exhaustive
// protocol (compare runs/op against BenchmarkMRFSearchExhaustive). A
// fresh engine per iteration keeps the cache out of the measurement.
func BenchmarkMRFSearch(b *testing.B) {
	sc, _ := scenario.ByName(scenario.CutOutFast)
	runs := 0
	for i := 0; i < b.N; i++ {
		eng := engine.New(engine.Options{})
		m, err := metrics.FindMRF(context.Background(), eng, sc, metrics.DefaultFPRGrid(), 2)
		eng.Close()
		if err != nil {
			b.Fatal(err)
		}
		runs += m.Runs
	}
	b.ReportMetric(float64(runs)/float64(b.N), "runs/op")
}

// BenchmarkMRFSearchExhaustive reproduces the seed path's cost model —
// every rate × seed simulated on a fresh engine, no early exit, no
// cache hit — as the reference the adaptive search must beat.
func BenchmarkMRFSearchExhaustive(b *testing.B) {
	sc, _ := scenario.ByName(scenario.CutOutFast)
	var jobs []engine.Job
	for _, fpr := range metrics.DefaultFPRGrid() {
		for seed := int64(1); seed <= 2; seed++ {
			jobs = append(jobs, engine.Job{Scenario: sc, FPR: fpr, Seed: seed})
		}
	}
	for i := 0; i < b.N; i++ {
		eng := engine.New(engine.Options{})
		_, err := eng.RunBatch(context.Background(), jobs)
		eng.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(jobs)), "runs/op")
}

// BenchmarkMRFSearchCached measures the repeated campaign: a warm
// engine serves the whole search from the result cache.
func BenchmarkMRFSearchCached(b *testing.B) {
	sc, _ := scenario.ByName(scenario.CutOutFast)
	eng := engine.New(engine.Options{})
	if _, err := metrics.FindMRF(context.Background(), eng, sc, metrics.DefaultFPRGrid(), 2); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.FindMRF(context.Background(), eng, sc, metrics.DefaultFPRGrid(), 2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 1 ---

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.Figure1()
		if len(d.Curve) != 12 {
			b.Fatal("bad curve")
		}
	}
}

// --- Figures 4, 5, 6: per-camera latency series ---

func benchFigureSeries(b *testing.B, name string) {
	b.Helper()
	eng := engine.New(engine.Options{})
	defer eng.Close()
	for i := 0; i < b.N; i++ {
		fs, err := experiments.CameraLatencyFigure(context.Background(), eng, name, 30, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(fs.Times) == 0 {
			b.Fatal("empty series")
		}
	}
}

func BenchmarkFigure4CutOutFast(b *testing.B) { benchFigureSeries(b, scenario.CutOutFast) }

func BenchmarkFigure5ChallengingCurved(b *testing.B) {
	benchFigureSeries(b, scenario.ChallengingCutInCurved)
}

func BenchmarkFigure6CutIn(b *testing.B) { benchFigureSeries(b, scenario.CutIn) }

// --- Figure 7: post-deployment online estimates ---

func BenchmarkFigure7PostDeployment(b *testing.B) {
	eng := engine.New(engine.Options{})
	defer eng.Close()
	for i := 0; i < b.N; i++ {
		s, err := experiments.Figure7(context.Background(), eng, 30, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(s.Times) == 0 {
			b.Fatal("empty series")
		}
	}
}

// --- Figure 8: sensitivity sweep ---

func BenchmarkFigure8Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sn := range []float64{30, 100} {
			res := experiments.Figure8(sn)
			if len(res.Cells) == 0 {
				b.Fatal("empty sweep")
			}
		}
	}
}

// --- Headline: Zhuyi-based system vs fixed 30 FPR ---

func BenchmarkHeadlineScenario(b *testing.B) {
	sc, _ := scenario.ByName(scenario.ChallengingCutIn)
	for i := 0; i < b.N; i++ {
		cfg := sc.Build(30, 1)
		est := core.NewEstimator()
		est.Cameras = est.Rig.Names()
		cfg.RateController = safety.NewController(
			est,
			predict.MultiHypothesis{Horizon: est.Params.Horizon, Dt: 0.1},
			safety.DefaultControllerConfig(),
		)
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Trace.Len() == 0 {
			b.Fatal("empty run")
		}
	}
}

// --- §4.2 compute demand: the online estimate itself ---

// BenchmarkEstimateSnapshot measures one online Zhuyi evaluation for a
// two-actor scene with a four-hypothesis predictor and reports the
// constraint evaluations and modeled ops per call (paper: |A|·|T|·M·L·C
// ≤ 60 kops for |A|=2, |T|=1).
func BenchmarkEstimateSnapshot(b *testing.B) {
	est := core.NewEstimator()
	pred := predict.MultiHypothesis{Horizon: est.Params.Horizon, Dt: 0.1}
	ego := world.Agent{ID: world.EgoID, Pose: geom.Pose{Pos: geom.V(0, 0)}, Speed: 27, Length: 4.6, Width: 1.9}
	actors := []world.Agent{
		{ID: "lead", Pose: geom.Pose{Pos: geom.V(45, 0)}, Speed: 24, Accel: -4, Length: 4.6, Width: 1.9},
		{ID: "side", Pose: geom.Pose{Pos: geom.V(5, 3.5)}, Speed: 27, Length: 4.6, Width: 1.9},
	}
	evals := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := est.EstimateOnline(0, ego, actors, pred, 1.0/30)
		evals += e.Evals
	}
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
	b.ReportMetric(float64(evals*core.OpsPerIteration)/float64(b.N), "model-ops/op")
}

// --- Ablations (DESIGN.md §5) ---

func latencyWorkload() (core.EgoState, []world.Trajectory) {
	ego := core.EgoState{Pose: geom.Pose{Pos: geom.V(0, 0)}, Speed: 27, Length: 4.6, Width: 1.9}
	agent := world.Agent{ID: "lead", Pose: geom.Pose{Pos: geom.V(50, 0)}, Speed: 20, Accel: -3, Length: 4.6, Width: 1.9}
	trajs, _ := predict.MultiHypothesis{Horizon: 15, Dt: 0.1}.AppendPrediction(nil, nil, agent, 0)
	return ego, trajs
}

// BenchmarkLatencySearchAccelerated uses the paper's Eq.-3 stepping.
func BenchmarkLatencySearchAccelerated(b *testing.B) {
	ego, trajs := latencyWorkload()
	p := core.DefaultParams()
	evals := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range trajs {
			r := core.TolerableLatency(ego, tr, [2]float64{4.6, 1.9}, 1.0/30, p)
			evals += r.Evals
		}
	}
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
}

// BenchmarkLatencySearchNaive steps t'_n by a fixed 10 ms instead — the
// unoptimized variant the paper's Eq. 3 improves on.
func BenchmarkLatencySearchNaive(b *testing.B) {
	ego, trajs := latencyWorkload()
	p := core.DefaultParams()
	p.NaiveSearch = true
	evals := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range trajs {
			r := core.TolerableLatency(ego, tr, [2]float64{4.6, 1.9}, 1.0/30, p)
			evals += r.Evals
		}
	}
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
}

// Aggregation-mode ablation (Eq. 4).
func benchAggregation(b *testing.B, opt core.AggregateOptions) {
	b.Helper()
	ego, trajs := latencyWorkload()
	p := core.DefaultParams()
	results := make([]core.LatencyResult, len(trajs))
	probs := make([]float64, len(trajs))
	for i, tr := range trajs {
		results[i] = core.TolerableLatency(ego, tr, [2]float64{4.6, 1.9}, 1.0/30, p)
		probs[i] = tr.Prob
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Aggregate(results, probs, opt, nil)
	}
}

func BenchmarkAggregatePessimistic(b *testing.B) {
	benchAggregation(b, core.AggregateOptions{Mode: core.AggPessimistic})
}

func BenchmarkAggregateMean(b *testing.B) {
	benchAggregation(b, core.AggregateOptions{Mode: core.AggMean})
}

func BenchmarkAggregateP99(b *testing.B) {
	benchAggregation(b, core.AggregateOptions{Mode: core.AggPercentile, Percentile: 99})
}

// Confirmation-depth sensitivity (K).
func BenchmarkConfirmationDepth(b *testing.B) {
	for _, k := range []int{1, 3, 5, 8} {
		b.Run(string(rune('0'+k)), func(b *testing.B) {
			ego, trajs := latencyWorkload()
			p := core.DefaultParams()
			p.K = k
			for i := 0; i < b.N; i++ {
				for _, tr := range trajs {
					core.TolerableLatency(ego, tr, [2]float64{4.6, 1.9}, 1.0/30, p)
				}
			}
		})
	}
}

// --- Baseline comparison (related work §5) ---

// BenchmarkSurakshaGridSearch measures the uniform grid-search baseline
// for one scenario (3 rates, 1 seed): every probe is a full closed-loop
// simulation.
func BenchmarkSurakshaGridSearch(b *testing.B) {
	sc, _ := scenario.ByName(scenario.CutIn)
	eng := engine.New(engine.Options{})
	defer eng.Close()
	for i := 0; i < b.N; i++ {
		res, err := baseline.UniformGridSearch(context.Background(), eng, sc, []float64{1, 5, 30}, 1, 5)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Feasible {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkZhuyiTraceEvaluation measures Zhuyi's alternative: one
// offline pass over an already-recorded trace.
func BenchmarkZhuyiTraceEvaluation(b *testing.B) {
	res, err := RunScenario(ScenarioCutIn, 30, 1)
	if err != nil {
		b.Fatal(err)
	}
	est := core.NewEstimator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EvaluateTrace(res.Trace, core.OfflineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate throughput ---

// BenchmarkSimulationSecond measures one simulated second of the
// cut-out scenario (100 steps, 5 cameras at 30 FPR, 4 actors).
func BenchmarkSimulationSecond(b *testing.B) {
	sc, _ := scenario.ByName(scenario.CutOut)
	cfg := sc.Build(30, 1)
	cfg.Duration = 1
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceRoundTrip measures trace serialization, the I/O path of
// the pre-deployment flow.
func BenchmarkTraceRoundTrip(b *testing.B) {
	res, err := RunScenario(ScenarioFrontRightActivity1, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := res.Trace.Write(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := trace.Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
