package core_test

// Frozen-reference equivalence suite for the copy-free offline
// evaluator: legacyEvaluateTrace below is a verbatim copy of
// EvaluateTrace as it stood before the rewrite — a fresh futures map,
// trace.ActorFuture copying rows and agents per sample, and
// EstimateSnapshot per instant — with legacyActorFuture/legacyActorIn
// the deleted trace helpers it called. The rewritten evaluator must
// return a deep-equal OfflineResult on every registered scenario and
// on hand-built traces that exercise duplicate IDs and actor gaps.
//
// Do not "fix" or modernize the legacy functions: their value is that
// they do not change.

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/scenario"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/world"
)

func legacyEvaluateTrace(e *core.Estimator, tr *trace.Trace, opt core.OfflineOptions) (*core.OfflineResult, error) {
	if tr.Len() == 0 {
		return nil, fmt.Errorf("core: empty trace")
	}
	if opt.EvalEvery <= 0 {
		opt.EvalEvery = 0.1
	}
	stride := opt.FutureStride
	if stride <= 0 {
		stride = int(math.Max(1, 0.05/math.Max(tr.Meta.Dt, 1e-6)))
	}
	l0 := 0.0
	if tr.Meta.FPR > 0 {
		l0 = 1 / tr.Meta.FPR
	}

	cams := e.Cameras
	if cams == nil {
		cams = e.Rig.Names()
	}
	res := &core.OfflineResult{
		Scenario: tr.Meta.Scenario,
		RunFPR:   tr.Meta.FPR,
		Cameras:  cams,
	}

	rowEvery := int(math.Max(1, math.Round(opt.EvalEvery/math.Max(tr.Meta.Dt, 1e-6))))
	for i := 0; i < tr.Len(); i += rowEvery {
		row := tr.Rows[i]
		trajs := make(map[string][]world.Trajectory, len(row.Actors))
		for _, a := range row.Actors {
			if f, ok := legacyActorFuture(tr, a.ID, i, e.Params.Horizon, stride); ok {
				f.Prob = 1 // one recorded future per actor: |T| = 1
				trajs[a.ID] = []world.Trajectory{f}
			}
		}
		est := e.EstimateSnapshot(row.Time, row.Ego, row.Actors, trajs, l0)
		res.Points = append(res.Points, core.SeriesPoint{
			Time:     row.Time,
			Latency:  est.CameraLatency,
			FPR:      est.CameraFPR,
			EgoAccel: row.Ego.Accel,
			Evals:    est.Evals,
		})
	}
	return res, nil
}

func legacyActorFuture(tr *trace.Trace, id string, i int, horizon float64, stride int) (world.Trajectory, bool) {
	if stride < 1 {
		stride = 1
	}
	if i < 0 || i >= len(tr.Rows) {
		return world.Trajectory{}, false
	}
	start := tr.Rows[i].Time
	var pts []world.TrajectoryPoint
	for j := i; j < len(tr.Rows); j += stride {
		row := tr.Rows[j]
		if row.Time-start > horizon {
			break
		}
		a, ok := legacyActorIn(row, id)
		if !ok {
			break
		}
		pts = append(pts, world.TrajectoryPoint{
			T:       row.Time,
			Pos:     a.Pose.Pos,
			Heading: a.Pose.Heading,
			Speed:   a.Speed,
			Accel:   a.Accel,
		})
	}
	if len(pts) == 0 {
		return world.Trajectory{}, false
	}
	return world.Trajectory{ActorID: id, Prob: 1, Points: pts}, true
}

func legacyActorIn(r trace.Row, id string) (world.Agent, bool) {
	for _, a := range r.Actors {
		if a.ID == id {
			return a, true
		}
	}
	return world.Agent{}, false
}

// equivOptions is the (EvalEvery, FutureStride) grid every trace is
// evaluated under; zeros exercise the defaults.
func equivOptions() []core.OfflineOptions {
	var opts []core.OfflineOptions
	for _, every := range []float64{0, 0.1, 0.25} {
		for _, stride := range []int{0, 1, 7} {
			opts = append(opts, core.OfflineOptions{EvalEvery: every, FutureStride: stride})
		}
	}
	return opts
}

// assertMatchesLegacy evaluates tr with both evaluators under every
// option in equivOptions and requires deep-equal results. The
// evaluator runs twice: fresh (EvaluateTrace) and into reused, one
// result a caller keeps evaluating into across traces and options.
func assertMatchesLegacy(t *testing.T, label string, tr *trace.Trace, reused *core.OfflineResult) {
	t.Helper()
	e := core.NewEstimator()
	for _, opt := range equivOptions() {
		want, err := legacyEvaluateTrace(e, tr, opt)
		if err != nil {
			t.Fatalf("%s %+v: legacy: %v", label, opt, err)
		}
		got, err := e.EvaluateTrace(tr, opt)
		if err != nil {
			t.Fatalf("%s %+v: %v", label, opt, err)
		}
		reportDivergence(t, fmt.Sprintf("%s %+v", label, opt), want, got)
		if _, err := e.EvaluateTraceInto(tr, opt, reused); err != nil {
			t.Fatalf("%s %+v: into a reused result: %v", label, opt, err)
		}
		// The reused result carries its evaluation storage, which a
		// fresh one does not; every exported field must match.
		got = &core.OfflineResult{Scenario: reused.Scenario, RunFPR: reused.RunFPR, Points: reused.Points, Cameras: reused.Cameras}
		reportDivergence(t, fmt.Sprintf("%s %+v into a reused result", label, opt), want, got)
	}
}

// reportDivergence requires got to deep-equal want, naming the first
// divergent point when it does not.
func reportDivergence(t *testing.T, label string, want, got *core.OfflineResult) {
	t.Helper()
	if reflect.DeepEqual(want, got) {
		return
	}
	if len(want.Points) != len(got.Points) {
		t.Errorf("%s: %d points, want %d", label, len(got.Points), len(want.Points))
		return
	}
	for k := range want.Points {
		if !reflect.DeepEqual(want.Points[k], got.Points[k]) {
			t.Errorf("%s: first divergent point %d: got %+v, want %+v", label, k, got.Points[k], want.Points[k])
			return
		}
	}
	t.Errorf("%s: results differ outside their points", label)
}

// TestEvaluateTraceMatchesFrozenReference pins the rewritten evaluator
// to the frozen one over every registered scenario (Table 1 plus the
// ODD variants) at several rates and seeds, fresh and into one result
// reused across the scenario's traces.
func TestEvaluateTraceMatchesFrozenReference(t *testing.T) {
	scs := scenario.Default().List()
	if len(scs) != 13 {
		t.Fatalf("%d registered scenarios, want the 9 Table-1 scenarios and 4 variants", len(scs))
	}
	for _, sc := range scs {
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			reused := new(core.OfflineResult)
			for _, fpr := range []float64{1, 5, 10, 30} {
				for _, seed := range []int64{1, 2} {
					res, err := sim.Run(sc.Build(fpr, seed))
					if err != nil {
						t.Fatalf("fpr %g seed %d: %v", fpr, seed, err)
					}
					assertMatchesLegacy(t, fmt.Sprintf("fpr %g seed %d", fpr, seed), res.Trace, reused)
				}
			}
		})
	}
}

// irregularTrace is an ego at 20 m/s closing on a lead car at 12 m/s,
// with a second car alongside. Rows 100–400 list the lead twice; the
// second listing is a slower car 25 m ahead of the ego that the ego
// would reach near 2.8 s, against 7.5 s for the first, so which listing
// a future follows decides the estimate. The lead vanishes for rows
// 600–619 and reappears 10 m further back, so a future started before
// row 600 must stop at the gap rather than splice the two stretches.
func irregularTrace() *trace.Trace {
	tr := &trace.Trace{Meta: trace.Meta{Scenario: "irregular", FPR: 10, Dt: 0.01, Cameras: sensor.AnalyzedCameras()}}
	for i := 0; i <= 800; i++ {
		t := float64(i) * 0.01
		egoX := 20 * t
		lead := world.Agent{ID: "lead", Pose: geom.Pose{Pos: geom.V(60+12*t, 0)}, Speed: 12, Length: 4.6, Width: 1.9}
		row := trace.Row{
			Time: t,
			Ego:  world.Agent{ID: world.EgoID, Pose: geom.Pose{Pos: geom.V(egoX, 0)}, Speed: 20, Length: 4.6, Width: 1.9},
			Actors: []world.Agent{
				{ID: "side", Pose: geom.Pose{Pos: geom.V(egoX+8, 3.5)}, Speed: 20, Length: 4.6, Width: 1.9},
			},
		}
		if i >= 620 {
			lead.Pose.Pos.X -= 10
		}
		if i < 600 || i >= 620 {
			row.Actors = append(row.Actors, lead)
		}
		if i >= 100 && i <= 400 {
			dup := lead
			dup.Pose.Pos.X = 45 + 10*(t-1)
			dup.Speed = 10
			dup.Length = 9
			row.Actors = append(row.Actors, dup)
		}
		tr.Rows = append(tr.Rows, row)
	}
	return tr
}

func TestEvaluateTraceMatchesFrozenReferenceIrregular(t *testing.T) {
	reused := new(core.OfflineResult)
	tr := irregularTrace()
	assertMatchesLegacy(t, "irregular", tr, reused)

	// The duplicate sits first in the row for the other order.
	swapped := irregularTrace()
	for i := 100; i <= 400; i++ {
		a := swapped.Rows[i].Actors
		a[1], a[2] = a[2], a[1]
	}
	assertMatchesLegacy(t, "irregular-swapped", swapped, reused)
}

// TestFutureIndexEndsMatchScan checks the futures index's resumed
// horizon scan against a full one on every Table-1 trace and on the
// irregular trace, over strides, horizons and row orders.
func TestFutureIndexEndsMatchScan(t *testing.T) {
	traces := []*trace.Trace{irregularTrace()}
	for _, sc := range scenario.All() {
		res, err := sim.Run(sc.Build(10, 1))
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		traces = append(traces, res.Trace)
	}
	horizon := core.DefaultParams().Horizon
	for _, tr := range traces {
		for _, stride := range []int{1, 5, 7} {
			for _, h := range []float64{horizon, 0.5} {
				for _, rows := range core.FutureEndOrders(tr.Len()) {
					if err := core.CheckFutureEnds(tr, stride, h, rows); err != nil {
						t.Fatalf("%s: %v", tr.Meta.Scenario, err)
					}
				}
			}
		}
	}
}
