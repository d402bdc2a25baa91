package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/predict"
	"repro/internal/world"
)

func randomScene(rng *rand.Rand, actors int) (world.Agent, []world.Agent) {
	ego := world.Agent{
		ID:     world.EgoID,
		Pose:   geom.Pose{Pos: geom.Vec2{X: 0, Y: 0}, Heading: 0},
		Speed:  5 + rng.Float64()*25,
		Accel:  rng.Float64()*4 - 2,
		Length: 4.7, Width: 1.9,
	}
	wm := make([]world.Agent, actors)
	for i := range wm {
		wm[i] = world.Agent{
			ID:     fmt.Sprintf("a%d", i),
			Pose:   geom.Pose{Pos: geom.Vec2{X: rng.Float64()*120 - 20, Y: rng.Float64()*14 - 7}, Heading: rng.Float64() - 0.5},
			Speed:  rng.Float64() * 30,
			Accel:  rng.Float64()*8 - 5,
			LatVel: rng.Float64()*2 - 1,
			Length: 4.2, Width: 1.8,
			Static: rng.Intn(5) == 0,
		}
	}
	return ego, wm
}

// TestEstimateOnlineIntoMatchesEstimateOnline pins the pooled serving
// path's estimator to the allocating one across random scenes and a
// reused scratch: identical Estimates, including map contents and
// actor ordering.
func TestEstimateOnlineIntoMatchesEstimateOnline(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	est := NewEstimator()
	var pred predict.Predictor = predict.MultiHypothesis{Horizon: est.Params.Horizon, Dt: 0.1}
	var sc EstimateScratch
	var dst Estimate
	for i := 0; i < 50; i++ {
		ego, wm := randomScene(rng, rng.Intn(6))
		l0 := 1 / 30.0
		want := est.EstimateOnline(0, ego, wm, pred, l0)
		est.EstimateOnlineInto(&dst, &sc, 0, ego, wm, pred, l0)
		// Normalize nil-vs-empty actor slices before comparing.
		if len(want.Actors) == 0 && len(dst.Actors) == 0 {
			want.Actors, dst.Actors = nil, nil
		}
		got := dst
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scene %d: EstimateOnlineInto diverged\n got: %+v\nwant: %+v", i, got, want)
		}
	}
}

// TestEstimateOnlineIntoAllocFree pins the scratch path's allocation
// behavior: after warmup, repeated evaluations on a reused scratch and
// destination must not allocate at all.
func TestEstimateOnlineIntoAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	est := NewEstimator()
	var pred predict.Predictor = predict.MultiHypothesis{Horizon: est.Params.Horizon, Dt: 0.1}
	ego, wm := randomScene(rng, 4)
	var sc EstimateScratch
	var dst Estimate
	est.EstimateOnlineInto(&dst, &sc, 0, ego, wm, pred, 1/30.0) // warmup
	allocs := testing.AllocsPerRun(100, func() {
		est.EstimateOnlineInto(&dst, &sc, 0, ego, wm, pred, 1/30.0)
	})
	if allocs != 0 {
		t.Fatalf("EstimateOnlineInto allocates %.1f times per run, want 0", allocs)
	}
}
