// Package metrics implements the paper's validation measurements: the
// minimum required FPR (MRF) search — "the FPR above which no collision
// was detected in the scenario" (§4.2) — run over multiple seeds to
// absorb simulation nondeterminism, and per-run summary statistics.
// Every search runs on the caller's internal/engine scheduler, so
// campaigns are parallel, cancellable, and cached.
package metrics

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/scenario"
)

// DefaultFPRGrid is the set of tested rates from Table 1.
func DefaultFPRGrid() []float64 {
	return []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 30}
}

// MRF is the result of a minimum-required-FPR search.
type MRF struct {
	Scenario string
	Value    float64 // minimum safe FPR; 0 encodes "<1" (safe at every tested rate)
	// Collisions maps tested FPR -> collision count across seeds. Rates
	// the adaptive search skipped (strictly below the highest colliding
	// rate: they cannot change the MRF) have no entry.
	Collisions map[float64]int
	Seeds      int
	// Runs counts the points scheduled through the engine, including
	// cache hits — the campaign cost before caching.
	Runs int
}

// BelowGrid reports whether the scenario was safe even at the lowest
// tested rate (the paper prints these as "<1").
func (m MRF) BelowGrid() bool { return m.Value == 0 }

// String renders the MRF the way Table 1 does.
func (m MRF) String() string {
	if m.BelowGrid() {
		return "<1"
	}
	return fmt.Sprintf("%g", m.Value)
}

// FindMRF runs the scenario on eng over the ascending rate grid with
// the given number of seeds and returns the minimum rate from which no
// collision occurs at that rate or any higher tested rate.
//
// The search is adaptive: rates are evaluated from the highest down, one
// seeds-wide wave at a time, and stops at the first rate that shows a
// collision — every lower rate is irrelevant to the MRF by definition
// ("that rate AND all higher rates collision-free"), so the exhaustive
// rates×seeds sweep of the naive protocol is avoided. Each wave runs
// concurrently on the engine's pool, and points already simulated by an
// earlier campaign are cache hits. Waves always run all seeds to
// completion, keeping Collisions counts deterministic.
//
// All run failures are collected and returned joined (errors.Join),
// each annotated with its (scenario, fpr, seed) point.
func FindMRF(ctx context.Context, eng *engine.Engine, sc scenario.Scenario, fprs []float64, seeds int) (MRF, error) {
	res := MRF{Scenario: sc.Name, Collisions: make(map[float64]int, len(fprs)), Seeds: seeds}
	if seeds <= 0 {
		// An empty wave would declare every rate collision-free.
		return res, fmt.Errorf("metrics: FindMRF needs at least one seed, got %d", seeds)
	}

	mrf := 0.0
	for i := len(fprs) - 1; i >= 0; i-- {
		collided, err := collisionWave(ctx, eng, sc, fprs[i], seeds)
		res.Runs += seeds
		if err != nil {
			return res, err
		}
		res.Collisions[fprs[i]] = collided
		if collided > 0 {
			if i == len(fprs)-1 {
				mrf = math.Inf(1) // unsafe even at the highest tested rate
			} else {
				mrf = fprs[i+1]
			}
			break
		}
	}
	res.Value = mrf
	return res, nil
}

// collisionWave runs all seeds of one rate as a single engine campaign
// and counts collisions. A wave reads nothing but each run's collision
// outcome, which the engine's disk tier answers from the manifest
// summary alone: archived points cost no simulation and no trace
// decode.
func collisionWave(ctx context.Context, eng *engine.Engine, sc scenario.Scenario, fpr float64, seeds int) (int, error) {
	collided := 0
	jobs := make([]engine.Job, seeds)
	for s := range jobs {
		jobs[s] = engine.Job{Scenario: sc, FPR: fpr, Seed: int64(s + 1)}
	}
	batch, batchErr := eng.RunBatch(ctx, jobs)
	var errs []error
	for _, o := range batch.Outcomes {
		switch {
		case o.Err == nil:
			if o.Result.Collided() {
				collided++
			}
		case errors.Is(o.Err, context.Canceled) || errors.Is(o.Err, context.DeadlineExceeded):
			// Skipped by cancellation, not a measurement failure.
		default:
			errs = append(errs, fmt.Errorf("metrics: scenario %s fpr %g seed %d: %w", sc.Name, o.Job.FPR, o.Job.Seed, o.Err))
		}
	}
	if len(errs) == 0 {
		// No real failure: surface plain cancellation, if any.
		return collided, batchErr
	}
	return collided, errors.Join(errs...)
}

// CollisionRate runs the scenario n times at the given FPR with
// seeds 1..n concurrently on the engine and returns the fraction that
// collided. Failures are joined per point, like FindMRF.
func CollisionRate(ctx context.Context, eng *engine.Engine, sc scenario.Scenario, fpr float64, n int) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("metrics: CollisionRate needs at least one run, got %d", n)
	}
	collided, err := collisionWave(ctx, eng, sc, fpr, n)
	if err != nil {
		return 0, err
	}
	return float64(collided) / float64(n), nil
}
