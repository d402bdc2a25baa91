package core

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/sensor"
	"repro/internal/trace"
	"repro/internal/world"
)

// syntheticTrace builds a trace of an ego approaching a static obstacle
// with a harmless parallel actor alongside: dt = 10 ms, 12 s long.
func syntheticTrace() *trace.Trace {
	tr := &trace.Trace{Meta: trace.Meta{Scenario: "synthetic", FPR: 10, Dt: 0.01, Cameras: sensor.AnalyzedCameras()}}
	egoV := 15.0
	for i := 0; i <= 1200; i++ {
		t := float64(i) * 0.01
		egoX := egoV * t
		tr.Rows = append(tr.Rows, trace.Row{
			Time: t,
			Ego: world.Agent{
				ID: world.EgoID, Pose: geom.Pose{Pos: geom.V(egoX, 0)},
				Speed: egoV, Length: 4.6, Width: 1.9,
			},
			Actors: []world.Agent{
				{ID: "obstacle", Pose: geom.Pose{Pos: geom.V(260, 0)}, Length: 4, Width: 1.9, Static: true},
				{ID: "parallel", Pose: geom.Pose{Pos: geom.V(egoX+5, 3.5)}, Speed: egoV, Length: 4.6, Width: 1.9},
			},
			CmdAccel: 0,
		})
	}
	return tr
}

func TestEvaluateTraceSeries(t *testing.T) {
	e := NewEstimator()
	off, err := e.EvaluateTrace(syntheticTrace(), OfflineOptions{EvalEvery: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(off.Points) < 50 {
		t.Fatalf("points = %d", len(off.Points))
	}
	if off.Scenario != "synthetic" || off.RunFPR != 10 {
		t.Errorf("meta = %q %v", off.Scenario, off.RunFPR)
	}

	// The front requirement tightens as the ego nears the obstacle: the
	// front FPR series is (weakly) increasing over time.
	var lats []float64
	for _, pt := range off.Points {
		l, ok := pt.Latency[sensor.Front120]
		if !ok {
			t.Fatalf("no front latency at t=%v", pt.Time)
		}
		lats = append(lats, l)
	}
	first, last := lats[0], lats[len(lats)-1]
	if !(last < first) {
		t.Errorf("front latency did not tighten: %v -> %v", first, last)
	}

	// The parallel actor keeps the left camera idle.
	for i, pt := range off.Points {
		if l, ok := pt.Latency[sensor.Left]; ok && l < e.Params.LMax {
			t.Fatalf("left camera tightened at point %d: %v", i, l)
		}
	}

	// Aggregates.
	if off.MaxFPR() <= 1 {
		t.Errorf("max FPR = %v", off.MaxFPR())
	}
	per := off.MaxCameraFPR()
	if per[sensor.Front120] != off.MaxFPR() {
		t.Errorf("front camera max %v != overall max %v", per[sensor.Front120], off.MaxFPR())
	}
	if off.MaxSumFPR() != off.MaxFPR()+2 {
		t.Errorf("max sum %v != front max + 2 idle cameras", off.MaxSumFPR())
	}

	// Each point's ego acceleration mirrors the recorded one.
	for _, pt := range off.Points {
		if pt.EgoAccel != 0 {
			t.Fatalf("accel = %v, trace recorded 0", pt.EgoAccel)
		}
	}
}

func TestEvaluateTraceEmpty(t *testing.T) {
	e := NewEstimator()
	if _, err := e.EvaluateTrace(&trace.Trace{}, OfflineOptions{}); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestEvaluateTraceDefaultsApplied(t *testing.T) {
	e := NewEstimator()
	off, err := e.EvaluateTrace(syntheticTrace(), OfflineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Default EvalEvery = 0.1 s over 12 s: ~121 points.
	if len(off.Points) < 100 || len(off.Points) > 130 {
		t.Errorf("default sampling points = %d", len(off.Points))
	}
}

func TestEvaluateTraceL0FromMeta(t *testing.T) {
	// The run FPR feeds l0 = 1/FPR: a slower recorded system tolerates
	// higher latency (α = K(l − l0) shrinks), so estimates are lower.
	tr := syntheticTrace()
	e := NewEstimator()

	tr.Meta.FPR = 30
	fast, err := e.EvaluateTrace(tr, OfflineOptions{EvalEvery: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	tr.Meta.FPR = 2
	slow, err := e.EvaluateTrace(tr, OfflineOptions{EvalEvery: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if slow.MaxFPR() > fast.MaxFPR()+1e-9 {
		t.Errorf("slow-run estimates (%v) exceed fast-run (%v)", slow.MaxFPR(), fast.MaxFPR())
	}
}

func TestOfflineResultEmptyAggregates(t *testing.T) {
	r := &OfflineResult{}
	if r.MaxFPR() != 0 || r.MaxSumFPR() != 0 {
		t.Error("empty result aggregates nonzero")
	}
	if got := r.MaxCameraFPR(); len(got) != 0 {
		t.Errorf("empty per-camera map: %v", got)
	}
}

func TestEvaluateTraceMidSceneActorAppearance(t *testing.T) {
	// An actor that only exists in later rows must still get a future
	// trajectory from its first row onward.
	tr := syntheticTrace()
	for i := 600; i < len(tr.Rows); i++ {
		t := tr.Rows[i].Time
		tr.Rows[i].Actors = append(tr.Rows[i].Actors, world.Agent{
			ID:   "late",
			Pose: geom.Pose{Pos: geom.V(15*t+40, 0)}, Speed: 15, Length: 4.6, Width: 1.9,
		})
	}
	e := NewEstimator()
	off, err := e.EvaluateTrace(tr, OfflineOptions{EvalEvery: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(off.MaxFPR()) {
		t.Error("NaN estimate with mid-scene appearance")
	}
}
