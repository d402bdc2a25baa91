package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plot"
	"repro/internal/predict"
	"repro/internal/scenario"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/world"
)

// FigureSeries holds the per-camera latency estimates over time plus
// the ego acceleration — the content of the paper's Figures 4, 5, and 6
// (panels b–e).
type FigureSeries struct {
	Scenario string
	RunFPR   float64
	Times    []float64
	Left     []float64 // tolerable latency, s
	Front    []float64
	Right    []float64
	Accel    []float64 // ego longitudinal acceleration, m/s²
	Collided bool
}

// CameraLatencyFigure reads the named scenario's rows at the given rate
// and seed through eng.Trace and evaluates them offline — the
// pre-deployment flow behind Figures 4–6. Regenerating a figure after a
// Table-1 campaign on the same engine reuses the recorded trace, and a
// store-attached engine loads an archived point from disk.
func CameraLatencyFigure(ctx context.Context, eng *engine.Engine, name string, fpr float64, seed int64) (*FigureSeries, error) {
	sc, ok := scenario.ByName(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown scenario %q", name)
	}
	tr, err := eng.Trace(ctx, engine.Job{Scenario: sc, FPR: fpr, Seed: seed})
	if err != nil {
		return nil, err
	}
	est := core.NewEstimator()
	off, err := est.EvaluateTrace(tr, core.OfflineOptions{})
	if err != nil {
		return nil, err
	}
	fs := &FigureSeries{Scenario: name, RunFPR: fpr, Collided: tr.Collision != nil}
	for _, pt := range off.Points {
		fs.Times = append(fs.Times, pt.Time)
		fs.Left = append(fs.Left, pt.Latency[sensor.Left])
		fs.Front = append(fs.Front, pt.Latency[sensor.Front120])
		fs.Right = append(fs.Right, pt.Latency[sensor.Right])
		fs.Accel = append(fs.Accel, pt.EgoAccel)
	}
	return fs, nil
}

// WriteFigureSeries renders the series as aligned columns (one row per
// evaluation instant) followed by sparkline overviews of the four
// panels.
func WriteFigureSeries(w io.Writer, fs *FigureSeries) {
	fmt.Fprintf(w, "# %s (run at %g FPR)%s\n", fs.Scenario, fs.RunFPR, collideTag(fs.Collided))
	fmt.Fprintf(w, "%8s %10s %10s %10s %10s\n", "t(s)", "left(ms)", "front(ms)", "right(ms)", "accel")
	for i := range fs.Times {
		fmt.Fprintf(w, "%8.2f %10.0f %10.0f %10.0f %10.2f\n",
			fs.Times[i], fs.Left[i]*1000, fs.Front[i]*1000, fs.Right[i]*1000, fs.Accel[i])
	}
	fmt.Fprintln(w, "# overview (latency s / accel m/s²):")
	plot.Line(w, "# left", fs.Left, 60)
	plot.Line(w, "# front", fs.Front, 60)
	plot.Line(w, "# right", fs.Right, 60)
	plot.Line(w, "# accel", fs.Accel, 60)
}

func collideTag(c bool) string {
	if c {
		return " [COLLIDED]"
	}
	return ""
}

// OnlineSeries is the post-deployment latency estimate series of
// Figure 7: the Zhuyi model runs inside the closed loop on the
// perceived world model with predicted trajectories.
type OnlineSeries struct {
	Scenario string
	Times    []float64
	Front    []float64 // online front-camera latency estimate, s
	Offline  []float64 // offline (ground-truth) estimate at the same instants, s
	Collided bool
}

// onlineProbe records online Zhuyi estimates from inside the simulation
// loop without altering the camera rates.
type onlineProbe struct {
	est   *core.Estimator
	pred  predict.Predictor
	l0    float64
	times []float64
	front []float64
}

// Rates implements sim.RateController as a pure observer.
func (p *onlineProbe) Rates(now float64, ego world.Agent, wm []world.Agent) map[string]float64 {
	e := p.est.EstimateOnline(now, ego, wm, p.pred, p.l0)
	p.times = append(p.times, now)
	p.front = append(p.front, e.CameraLatency[sensor.Front120])
	return nil
}

// Figure7 reproduces the post-deployment validation: the Cut-in
// scenario with the Zhuyi model running online. The returned series
// pairs the online estimates with the offline ground-truth estimates at
// the same instants, whose difference is the prediction-driven variance
// the paper discusses. The run goes through eng's pool but never its
// cache or store: the probe must observe a live run.
func Figure7(ctx context.Context, eng *engine.Engine, fpr float64, seed int64) (*OnlineSeries, error) {
	return figure7WithAgg(ctx, eng, fpr, seed, core.AggregateOptions{Mode: core.AggPercentile, Percentile: 99})
}

// figure7WithAgg is Figure7 with a configurable Eq.-4 aggregation (used
// by the aggregation-mode ablation).
func figure7WithAgg(ctx context.Context, eng *engine.Engine, fpr float64, seed int64, agg core.AggregateOptions) (*OnlineSeries, error) {
	sc, ok := scenario.ByName(scenario.CutIn)
	if !ok {
		return nil, fmt.Errorf("experiments: cut-in scenario missing")
	}
	est := core.NewEstimator()
	est.Agg = agg
	probe := &onlineProbe{
		est:  est,
		pred: predict.MultiHypothesis{Horizon: est.Params.Horizon, Dt: 0.1},
		l0:   1 / fpr,
	}
	// The probe records estimates from inside the loop; a Configure hook
	// makes the engine execute the run rather than replay a cached one,
	// which would leave the probe empty. The offline reference below
	// needs every row, whatever eng records.
	res, err := eng.Run(ctx, engine.Job{
		Scenario: sc, FPR: fpr, Seed: seed,
		Configure: func(cfg *sim.Config) {
			cfg.RateController = probe
			cfg.RateEpoch = 0.1
			cfg.Record = trace.LevelFull
		},
	})
	if err != nil {
		return nil, err
	}

	// Offline reference on the same trace.
	offEst := core.NewEstimator()
	off, err := offEst.EvaluateTrace(res.Trace, core.OfflineOptions{})
	if err != nil {
		return nil, err
	}
	offline := make(map[float64]float64, len(off.Points))
	for _, pt := range off.Points {
		offline[roundTo(pt.Time, 0.1)] = pt.Latency[sensor.Front120]
	}

	series := &OnlineSeries{Scenario: sc.Name, Collided: res.Collided()}
	for i, t := range probe.times {
		ref, ok := offline[roundTo(t, 0.1)]
		if !ok {
			continue
		}
		series.Times = append(series.Times, t)
		series.Front = append(series.Front, probe.front[i])
		series.Offline = append(series.Offline, ref)
	}
	return series, nil
}

func roundTo(v, step float64) float64 { return math.Round(v/step) * step }

// Variance returns the mean squared difference between the online and
// offline estimates — the Figure-7 "variance in the estimates" due to
// predicted (rather than ground-truth) futures.
func (s *OnlineSeries) Variance() float64 {
	if len(s.Times) == 0 {
		return 0
	}
	sum := 0.0
	for i := range s.Times {
		d := s.Front[i] - s.Offline[i]
		sum += d * d
	}
	return sum / float64(len(s.Times))
}

// MinOnline returns the tightest online front-camera estimate.
func (s *OnlineSeries) MinOnline() float64 {
	tightest := math.Inf(1)
	for _, l := range s.Front {
		if l < tightest {
			tightest = l
		}
	}
	return tightest
}

// WriteOnlineSeries renders Figure 7 as text with sparkline overviews.
func WriteOnlineSeries(w io.Writer, s *OnlineSeries) {
	fmt.Fprintf(w, "# %s post-deployment front-camera estimates%s\n", s.Scenario, collideTag(s.Collided))
	fmt.Fprintf(w, "%8s %12s %12s\n", "t(s)", "online(ms)", "offline(ms)")
	for i := range s.Times {
		fmt.Fprintf(w, "%8.2f %12.0f %12.0f\n", s.Times[i], s.Front[i]*1000, s.Offline[i]*1000)
	}
	plot.Line(w, "# online", s.Front, 60)
	plot.Line(w, "# offline", s.Offline, 60)
	fmt.Fprintf(w, "# variance (online vs offline) = %.4f s²\n", s.Variance())
}
