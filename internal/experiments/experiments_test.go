package experiments

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/predict"
	"repro/internal/safety"
	"repro/internal/scenario"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// testEng is the one engine the package's real-simulation tests share,
// so overlapping campaigns reuse each other's runs from the cache.
var testEng = engine.New(engine.Options{})

// quickOptions keeps experiment tests fast: 2 seeds and a reduced rate
// grid that still brackets every scenario's true MRF (so the grid does
// not inflate MRF past the estimates).
func quickOptions() Options {
	return Options{Seeds: 2, FPRGrid: []float64{1, 2, 3, 5, 30}}
}

func TestTable1QuickGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("table 1 is slow")
	}
	rows, err := Table1(context.Background(), testEng, quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Scenario] = r
	}

	// Shape assertions mirroring the paper's Table 1:
	// benign scenarios are safe at every rate and report ~1 FPR.
	fr1 := byName[scenario.FrontRightActivity1]
	if !fr1.MRF.BelowGrid() {
		t.Errorf("front-right-1 MRF = %v, want <1", fr1.MRF.Value)
	}
	if est := fr1.Estimates[30]; math.IsNaN(est) || est > 1.5 {
		t.Errorf("front-right-1 estimate at 30 FPR = %v, want ~1", est)
	}
	if fr1.Fraction > 0.06 {
		t.Errorf("front-right-1 fraction = %v, want ~0.03", fr1.Fraction)
	}

	// The cut-out family needs real rates; the fast variant needs more.
	cutOut := byName[scenario.CutOut]
	cutOutFast := byName[scenario.CutOutFast]
	if cutOut.MRF.BelowGrid() {
		t.Error("cut-out MRF <1; expected collisions at 1 FPR")
	}
	if cutOutFast.MRF.Value < cutOut.MRF.Value {
		t.Errorf("cut-out-fast MRF %v below cut-out %v", cutOutFast.MRF.Value, cutOut.MRF.Value)
	}

	// The headline fraction: no scenario demands more than ~36% of the
	// 3-camera 30-FPR provisioning.
	if f := MaxFraction(rows); f > 0.37 {
		t.Errorf("max fraction = %v, paper reports <= 0.36", f)
	}

	// Below-MRF cells are N/A.
	if !math.IsNaN(cutOut.Estimates[1]) {
		t.Error("cut-out estimate at 1 FPR should be N/A")
	}

	// Rendering sanity.
	var sb strings.Builder
	WriteTable1(&sb, rows, quickOptions().FPRGrid)
	out := sb.String()
	if !strings.Contains(out, "cut-out") || !strings.Contains(out, "N/A") {
		t.Errorf("rendered table missing content:\n%s", out)
	}

	// The conservatism validation: allow at most the documented single
	// grid-step deviation on the slowest scenario.
	violations := ValidateTable1(rows)
	for _, v := range violations {
		t.Logf("validation note: %s", v)
	}
	if len(violations) > 2 {
		t.Errorf("too many conservatism violations: %v", violations)
	}
}

func TestCameraLatencyFigureCutOutFast(t *testing.T) {
	fs, err := CameraLatencyFigure(context.Background(), testEng, scenario.CutOutFast, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Collided {
		t.Fatal("30-FPR run collided")
	}
	if len(fs.Times) < 50 {
		t.Fatalf("series too short: %d", len(fs.Times))
	}
	left, front, right := fs.MinLatency()
	// Figure 4: the front camera requires ~167 ms at some instants while
	// the side cameras stay at >= 500 ms.
	if front > 0.35 {
		t.Errorf("front min latency = %v s, want tight (< 0.35)", front)
	}
	if left < 0.4 || right < 0.4 {
		t.Errorf("side cameras too tight: left %v, right %v", left, right)
	}
	// §4.2's correlation between front-camera requirements and ego
	// deceleration: the tight moment occurs at the reveal, and the ego
	// brakes hard within the following second.
	peak, tightest := 0.0, math.Inf(1)
	for i, l := range fs.Front {
		if l < tightest {
			peak, tightest = fs.Times[i], l
		}
	}
	minAccel := math.Inf(1)
	for i, tm := range fs.Times {
		if tm >= peak && tm <= peak+1.0 {
			minAccel = math.Min(minAccel, fs.Accel[i])
		}
	}
	if minAccel > -2 {
		t.Errorf("no hard deceleration (min %v) within 1 s of the peak-FPR moment %v", minAccel, peak)
	}
}

func TestCameraLatencyFigureCutIn(t *testing.T) {
	fs, err := CameraLatencyFigure(context.Background(), testEng, scenario.CutIn, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 6: "the tolerable latency for side cameras is 1000 ms as
	// there are no actors on the sides".
	left, _, right := fs.MinLatency()
	if left < 0.999 || right < 0.999 {
		t.Errorf("cut-in side cameras = %v, %v; want 1.0 s", left, right)
	}
	var sb strings.Builder
	WriteFigureSeries(&sb, fs)
	if !strings.Contains(sb.String(), "front(ms)") {
		t.Error("rendered series missing header")
	}
}

// TestCameraLatencyFigureFromStore: a figure point archived by one
// engine is read back by a fresh engine over the same store without
// simulating, and the series is the cold one.
func TestCameraLatencyFigureFromStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	figure := func() (*FigureSeries, engine.Stats) {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		eng := engine.New(engine.Options{Store: st})
		defer eng.Close()
		fs, err := CameraLatencyFigure(context.Background(), eng, scenario.CutIn, 30, 1)
		if err != nil {
			t.Fatal(err)
		}
		return fs, eng.Stats()
	}
	cold, cs := figure()
	if cs.Executed != 1 || cs.Archived != 1 {
		t.Fatalf("cold stats = %+v, want 1 run archived", cs)
	}
	warm, ws := figure()
	if ws.Executed != 0 || ws.DiskHits < 1 || ws.StoreErrors != 0 {
		t.Fatalf("warm stats = %+v, want 0 runs, >= 1 disk hit, 0 store errors", ws)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm series differs from the cold one")
	}
}

// TestFiguresOnSummaryEngine: an engine that records only summaries
// still yields the rows Figures 4–7 evaluate.
func TestFiguresOnSummaryEngine(t *testing.T) {
	eng := engine.New(engine.Options{Record: trace.LevelSummary})
	defer eng.Close()
	fs, err := CameraLatencyFigure(context.Background(), eng, scenario.CutIn, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Times) < 50 {
		t.Fatalf("series too short: %d", len(fs.Times))
	}
	s, err := Figure7(context.Background(), eng, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Times) < 20 {
		t.Fatalf("online series too short: %d", len(s.Times))
	}
}

func TestCameraLatencyFigureUnknownScenario(t *testing.T) {
	if _, err := CameraLatencyFigure(context.Background(), testEng, "nope", 30, 1); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestFigure7OnlineEstimates(t *testing.T) {
	s, err := Figure7(context.Background(), testEng, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Collided {
		t.Fatal("post-deployment run collided")
	}
	if len(s.Times) < 20 {
		t.Fatalf("series too short: %d", len(s.Times))
	}
	// The online estimates differ from offline (prediction-driven
	// variance), but both flag the cut-in: some online tightening below
	// the 1 s idle latency must appear.
	if s.MinOnline() >= 0.999 {
		t.Error("online estimates never tightened during the cut-in")
	}
	if s.Variance() == 0 {
		t.Error("online estimates identical to offline ground truth; expected variance")
	}
	var sb strings.Builder
	WriteOnlineSeries(&sb, s)
	if !strings.Contains(sb.String(), "online(ms)") {
		t.Error("rendered online series missing header")
	}
}

func TestFigure8Grids(t *testing.T) {
	for _, sn := range []float64{30, 100} {
		res := Figure8(sn)
		sum := Summarize(res)
		if sum.Feasible == 0 {
			t.Fatalf("sn=%v: no feasible cells", sn)
		}
		// Paper: streets (<= 25 mph) need at most 2 FPR.
		if sum.StreetMaxFPR > 2 {
			t.Errorf("sn=%v: street max FPR = %d, want <= 2", sn, sum.StreetMaxFPR)
		}
	}
	// sn=30 is strictly harder than sn=100.
	s30 := Summarize(Figure8(30))
	s100 := Summarize(Figure8(100))
	if s30.Unavoidable <= s100.Unavoidable {
		t.Errorf("unavoidable cells: sn30 %d should exceed sn100 %d", s30.Unavoidable, s100.Unavoidable)
	}
	var sb strings.Builder
	WriteSweep(&sb, Figure8(30))
	out := sb.String()
	if !strings.Contains(out, ".") || !strings.Contains(out, "1") {
		t.Errorf("sweep rendering suspicious:\n%s", out)
	}
}

func TestFigure1(t *testing.T) {
	d := Figure1()
	if len(d.Curve) != 12 {
		t.Fatalf("curve points = %d", len(d.Curve))
	}
	final := d.Curve[len(d.Curve)-1].TOPS
	if final <= d.Xavier.TOPS || final >= d.Orin.TOPS {
		t.Errorf("12-camera demand %v must sit between Xavier %v and Orin %v",
			final, d.Xavier.TOPS, d.Orin.TOPS)
	}
	var sb strings.Builder
	WriteFigure1(&sb, d)
	if !strings.Contains(sb.String(), ">xavier") {
		t.Error("rendering missing Xavier exceedance marks")
	}
}

func TestHeadlineClosedLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("headline is slow")
	}
	rows, err := Headline(context.Background(), testEng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !AllSafe(rows) {
		for _, r := range rows {
			if !r.ZhuyiSafe {
				t.Errorf("%s collided under the Zhuyi controller", r.Scenario)
			}
		}
	}
	// The controller must cut the frame volume versus the fixed 30-FPR
	// baseline. Threat-heavy scenarios (a lead present for the whole
	// run) keep the front cameras fast under the cautious 99th-
	// percentile aggregation, so the per-scenario worst case is modest,
	// but the average reduction across scenarios must be large.
	if f := MaxFrameFraction(rows); f > 0.85 {
		t.Errorf("max frame fraction = %v, expected < 0.85", f)
	}
	mean := 0.0
	for _, r := range rows {
		mean += r.FrameFraction
	}
	mean /= float64(len(rows))
	if mean > 0.5 {
		t.Errorf("mean frame fraction = %v, expected < 0.5", mean)
	}
	var sb strings.Builder
	WriteHeadline(&sb, rows)
	if !strings.Contains(sb.String(), "fraction") {
		t.Error("headline rendering missing header")
	}
}

// PrioritizationRow compares Zhuyi-prioritized allocation against a
// uniform split of the same total frame budget — §3.2's work
// prioritization under constrained resources.
type PrioritizationRow struct {
	Scenario    string
	Budget      float64
	UniformSafe bool
	ZhuyiSafe   bool
}

// Prioritization runs a scenario under a constrained total budget with
// both allocators, concurrently on eng.
func Prioritization(ctx context.Context, eng *engine.Engine, name string, budget float64, seed int64) (PrioritizationRow, error) {
	row := PrioritizationRow{Scenario: name, Budget: budget}
	sc, ok := scenario.ByName(name)
	if !ok {
		return row, fmt.Errorf("experiments: unknown scenario %q", name)
	}

	est := core.NewEstimator()
	est.Cameras = est.Rig.Names()
	ccfg := safety.DefaultControllerConfig()
	ccfg.Budget = budget
	batch, err := eng.RunBatch(ctx, []engine.Job{
		{
			Scenario: sc, FPR: 30, Seed: seed,
			Configure: func(cfg *sim.Config) {
				if cfg.Rig == nil {
					cfg.Rig = sensor.DefaultRig()
				}
				cfg.RateController = safety.UniformRates{Cameras: cfg.Rig.Names(), Budget: budget}
			},
		},
		{
			Scenario: sc, FPR: 30, Seed: seed,
			Configure: func(cfg *sim.Config) {
				cfg.RateController = safety.NewController(
					est,
					predict.MultiHypothesis{Horizon: est.Params.Horizon, Dt: 0.1},
					ccfg,
				)
			},
		},
	})
	if err != nil {
		return row, err
	}
	row.UniformSafe = !batch.Outcomes[0].Result.Collided()
	row.ZhuyiSafe = !batch.Outcomes[1].Result.Collided()
	return row, nil
}

func TestPrioritizationBeatsUniformUnderTightBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("prioritization is slow")
	}
	// Budget 10 FPR across five cameras: uniform gives 2 each — the
	// cut-out-fast scenario reliably collides at 2 FPR — while Zhuyi
	// concentrates the same budget on the front cameras watching the
	// lead and the revealed obstacle.
	row, err := Prioritization(context.Background(), testEng, scenario.CutOutFast, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row.UniformSafe {
		t.Error("uniform split of the tight budget unexpectedly survived")
	}
	if !row.ZhuyiSafe {
		t.Error("Zhuyi-prioritized allocation collided")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Seeds != 10 || len(o.FPRGrid) != 12 || o.EvalEvery != 0.1 {
		t.Errorf("defaults = %+v", o)
	}
}

// MinLatency returns the per-camera minima (the figures' headline: how
// low each camera's tolerable latency dips).
func (fs *FigureSeries) MinLatency() (left, front, right float64) {
	left, front, right = math.Inf(1), math.Inf(1), math.Inf(1)
	for i := range fs.Times {
		left = math.Min(left, fs.Left[i])
		front = math.Min(front, fs.Front[i])
		right = math.Min(right, fs.Right[i])
	}
	return left, front, right
}
