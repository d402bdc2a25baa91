package main

import (
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/replay"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// runSummary is the part of a run's outcome every tier must reproduce.
type runSummary struct {
	collided       bool
	collisionTime  float64
	collisionActor string
	minGap         float64
	frames         map[string]int
}

func summaryOf(res *sim.Result) runSummary {
	s := runSummary{minGap: res.MinBumperGap, frames: res.FramesProcessed}
	if c := res.Collision; c != nil {
		s.collided, s.collisionTime, s.collisionActor = true, c.Time, c.ActorID
	}
	return s
}

func (s runSummary) equal(o runSummary) bool {
	return s.collided == o.collided && s.collisionTime == o.collisionTime &&
		s.collisionActor == o.collisionActor && s.minGap == o.minGap && maps.Equal(s.frames, o.frames)
}

// checkBatch applies the per-point oracle to a campaign: every point
// present, without error, and with the expected outcome. It returns the
// number of failed points.
func (b *bench) checkBatch(br *engine.BatchResult, err error, want []runSummary) int {
	if err != nil {
		b.res.miss("campaign: %v", err)
	}
	if br == nil || len(br.Outcomes) != len(want) {
		b.res.miss("campaign returned no outcomes")
		return len(want)
	}
	failed := 0
	for i, o := range br.Outcomes {
		j := o.Job
		switch {
		case o.Err != nil || o.Result == nil:
			failed++
			b.res.miss("%s fpr %g seed %d: %v", j.Scenario.Name, j.FPR, j.Seed, o.Err)
		case !summaryOf(o.Result).equal(want[i]):
			failed++
			b.res.miss("%s fpr %g seed %d: outcome differs from the reference run", j.Scenario.Name, j.FPR, j.Seed)
		}
	}
	return failed
}

// referenceRun is the store-less summary-level campaign whose outcomes
// the cold workload's archived runs must match.
func referenceRun(ctx context.Context, jobs []engine.Job, workers int) ([]runSummary, error) {
	eng := engine.New(engine.Options{Workers: workers, Record: trace.LevelSummary})
	defer eng.Close()
	br, err := eng.RunBatch(ctx, jobs)
	if err != nil {
		return nil, fmt.Errorf("reference campaign: %w", err)
	}
	return summariesOf(br), nil
}

func summariesOf(br *engine.BatchResult) []runSummary {
	out := make([]runSummary, len(br.Outcomes))
	for i, o := range br.Outcomes {
		out[i] = summaryOf(o.Result)
	}
	return out
}

// record archives the grid into a new store at dir, as `zhuyi record`
// does, and with baselines also records replay baselines over it, as
// `zhuyi replay -record` does. It returns the recorded outcomes.
func record(ctx context.Context, dir string, jobs []engine.Job, workers int, baselines bool) ([]runSummary, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("clear %s: %w", dir, err)
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	eng := engine.New(engine.Options{Workers: workers, Store: st})
	br, err := eng.RunBatch(ctx, jobs)
	eng.Close()
	if err == nil && baselines {
		var rep *replay.Report
		if rep, err = replay.Run(ctx, st, replay.Options{Workers: workers}); err == nil {
			err = replay.WriteBaselines(st, rep.Summaries)
		}
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("record store: %w", err)
	}
	return summariesOf(br), nil
}

// campaignRun is what the timed passes of a Table-1 workload leave for
// the report and the traced run.
type campaignRun struct {
	walls, firsts []time.Duration // per timed pass
	stats         engine.Stats    // the last pass's engine counters
	divergences   int
}

// passTime is one pass's wall time and its time to the first point.
type passTime struct{ wall, first time.Duration }

// timedPasses runs one untimed warm-up pass, then timed passes until the
// budget is spent: another starts only while the mean pass still fits.
// Each pass starts from a collected heap, as a fresh campaign process
// would. The sampler covers the timed passes only.
func (b *bench) timedPasses(run *campaignRun, pass func(n int, smp *sampler) (passTime, error)) (*sampler, error) {
	runtime.GC()
	if _, err := pass(0, nil); err != nil {
		return nil, err
	}
	smp := startSampler()
	defer smp.finish()
	start := time.Now()
	for n := 1; ; n++ {
		smp.collect()
		pt, err := pass(n, smp)
		if err != nil {
			return nil, err
		}
		run.walls = append(run.walls, pt.wall)
		run.firsts = append(run.firsts, pt.first)
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(n) > b.budget {
			return smp, nil
		}
	}
}

// campaignPass runs the grid as one RunBatchFunc on a new engine over
// the store at dir, as `zhuyi` campaigns do, and applies the per-point
// oracle. The engine's counters land in run.stats.
func (b *bench) campaignPass(ctx context.Context, in inputs, dir string, ref []runSummary, run *campaignRun, smp *sampler) (passTime, error) {
	t0 := time.Now()
	st, err := store.Open(dir)
	if err != nil {
		return passTime{}, err
	}
	eng := engine.New(engine.Options{Workers: b.workers, Store: st})
	smp.track(eng)
	var first time.Duration
	br, err := eng.RunBatchFunc(ctx, in.grid, func(int, engine.Outcome) {
		if first == 0 {
			first = time.Since(t0)
		}
	})
	pt := passTime{wall: time.Since(t0), first: first}
	run.stats = eng.Stats()
	eng.Close()
	b.res.attempted += len(in.grid)
	b.res.failed += b.checkBatch(br, err, ref)
	if n := int64(st.Len()); n != int64(len(in.grid)) {
		b.res.miss("store holds %d entries after the campaign, want %d", n, len(in.grid))
	}
	if err := st.Close(); err != nil {
		b.res.miss("close store: %v", err)
	}
	return pt, nil
}

// runCold is table1_cold: each pass runs the grid on a new engine over
// a new, empty store, so every point simulates and is archived.
func runCold(ctx context.Context, b *bench) error {
	in := newInputs(b.seed)
	var ref []runSummary
	err := b.setup(func() error {
		var err error
		ref, err = referenceRun(ctx, in.grid, b.workers)
		return err
	})
	if err != nil {
		return err
	}
	var run campaignRun
	var storeBytes int64
	smp, err := b.timedPasses(&run, func(n int, smp *sampler) (passTime, error) {
		dir := filepath.Join(b.work, fmt.Sprintf("cold-%d", n))
		pt, err := b.campaignPass(ctx, in, dir, ref, &run, smp)
		if err != nil {
			return pt, err
		}
		s, want := run.stats, int64(len(in.grid))
		if s.Executed != want || s.Archived != want || s.StoreErrors != 0 {
			b.res.miss("cold pass %d: executed %d, archived %d, store errors %d; want %d, %d, 0",
				n, s.Executed, s.Archived, s.StoreErrors, want, want)
		}
		storeBytes = dirBytes(dir)
		return pt, os.RemoveAll(dir)
	})
	if err != nil {
		return err
	}
	b.reportCampaign(in, run, smp)
	b.res.set("store_mb", float64(storeBytes)/(1<<20), "MB")
	if b.traced {
		return b.traceCampaign(ctx, in, run, smp, b.workers+1)
	}
	return nil
}

// runWarm is table1_warm: each pass runs the grid on a new engine over
// a fresh Open of the store recorded in setup; every point is a disk hit.
func runWarm(ctx context.Context, b *bench) error {
	in := newInputs(b.seed)
	dir := filepath.Join(b.work, "recorded")
	var ref []runSummary
	err := b.setup(func() error {
		var err error
		ref, err = record(ctx, dir, in.grid, b.workers, false)
		return err
	})
	if err != nil {
		return err
	}
	var run campaignRun
	smp, err := b.timedPasses(&run, func(n int, smp *sampler) (passTime, error) {
		pt, err := b.campaignPass(ctx, in, dir, ref, &run, smp)
		if s := run.stats; err == nil && (s.DiskHits != int64(len(in.grid)) || s.Executed != 0) {
			b.res.miss("warm pass %d: disk hits %d, executed %d; want %d, 0", n, s.DiskHits, s.Executed, len(in.grid))
		}
		return pt, err
	})
	if err != nil {
		return err
	}
	b.reportCampaign(in, run, smp)
	b.res.set("store_mb", float64(dirBytes(dir))/(1<<20), "MB")
	if b.traced {
		return b.traceCampaign(ctx, in, run, smp, b.workers)
	}
	return nil
}

// runReplay is table1_replay: each pass is replay.Run plus replay.Diff
// over the store and baselines recorded in setup, as `zhuyi replay` and
// `zhuyi diff` do.
func runReplay(ctx context.Context, b *bench) error {
	in := newInputs(b.seed)
	dir := filepath.Join(b.work, "recorded")
	err := b.setup(func() error {
		_, err := record(ctx, dir, in.grid, b.workers, true)
		return err
	})
	if err != nil {
		return err
	}
	var run campaignRun
	smp, err := b.timedPasses(&run, func(n int, _ *sampler) (passTime, error) {
		t0 := time.Now()
		st, err := store.Open(dir)
		if err != nil {
			return passTime{}, err
		}
		defer st.Close()
		rep, err := replay.Run(ctx, st, replay.Options{Workers: b.workers})
		if err != nil {
			return passTime{}, err
		}
		base, err := replay.LoadBaselines(st)
		if err != nil {
			return passTime{}, err
		}
		divs := replay.Diff(base, rep.Summaries)
		pt := passTime{wall: time.Since(t0)}
		b.res.attempted += len(in.grid)
		failed := map[string]bool{}
		for _, d := range divs {
			failed[fmt.Sprintf("%s/%g/%d", d.Scenario, d.FPR, d.Seed)] = true
			b.res.miss("replay divergence: %s", d)
		}
		if len(rep.Summaries) != len(in.grid) {
			b.res.miss("replay pass %d: %d runs replayed, want %d", n, len(rep.Summaries), len(in.grid))
			failed["missing"] = true
		}
		b.res.failed += min(len(failed), len(in.grid))
		run.divergences += len(divs)
		return pt, nil
	})
	if err != nil {
		return err
	}
	b.reportCampaign(in, run, smp)
	b.res.set("store_mb", float64(dirBytes(dir))/(1<<20), "MB")
	if b.traced {
		return b.traceCampaign(ctx, in, run, smp, b.workers)
	}
	return nil
}

// reportCampaign sets the end-to-end metrics a Table-1 workload shares:
// points_per_s is the upper quartile of the timed passes' throughput.
func (b *bench) reportCampaign(in inputs, run campaignRun, smp *sampler) {
	rates := make([]float64, len(run.walls))
	for i, w := range run.walls {
		rates[i] = float64(len(in.grid)) / w.Seconds()
	}
	b.res.set("points_per_s", upperQuartile(rates), "1/s")
	b.res.set("peak_heap_mb", smp.heapMB(), "MB")
	b.res.set("passes", float64(len(run.walls)), "count")
}

// traceCampaign is the traced half of a Table-1 workload: the e2e run's
// engine counters, then the serial sweep over the same points. lanes is
// how many goroutines the e2e path keeps busy at once.
func (b *bench) traceCampaign(ctx context.Context, in inputs, run campaignRun, smp *sampler, lanes int) error {
	lt, err := sweep(ctx, b.work, in.grid, nil, in.rng)
	if err != nil {
		return fmt.Errorf("traced sweep: %w", err)
	}
	r := b.res
	lt.report(r)
	b.reportEngine(run.stats)
	r.set("engine.archive_pending_max", float64(smp.peakPending), "count")
	r.set("engine.first_point_ms", ms(medianDur(run.firsts)), "ms")
	r.set("replay.divergences", float64(run.divergences+lt.diverged), "count")
	b.reportStats(lt.stats)
	b.reportGC(smp)

	// The busy time of the calls the e2e pass makes, per pass.
	var busy time.Duration
	switch b.workload {
	case "table1_cold":
		busy = sum(lt.build) + sum(lt.simRun) + sum(lt.put)
	case "table1_warm":
		busy = medianDur(lt.open) + sum(lt.get)
	case "table1_replay":
		busy = medianDur(lt.open) + medianDur(lt.entries) + sum(lt.storeTrace) + sum(lt.summarize) + sum(lt.diff)
	}
	wall := medianDur(run.walls)
	r.set("engine.unattributed_share", 1-busy.Seconds()/(wall.Seconds()*float64(lanes)), "ratio")
	r.set("tracing.e2e_s", wall.Seconds(), "s")
	r.set("tracing.overhead", lt.wall.Seconds()/wall.Seconds(), "ratio")
	return nil
}

// reportEngine sets the engine's lifetime counters.
func (b *bench) reportEngine(s engine.Stats) {
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"engine.executed", s.Executed},
		{"engine.archived", s.Archived},
		{"engine.disk_hits", s.DiskHits},
		{"engine.store_errors", s.StoreErrors},
		{"engine.lockstep_groups", s.LockstepGroups},
		{"engine.lockstep_runs", s.LockstepRuns},
	} {
		b.res.set(c.name, float64(c.v), "count")
	}
}

// reportStats sets the metrics read from a server's GET /v1/stats.
func (b *bench) reportStats(st *server.StatsResponse) {
	p50, p99 := rateHist(st)
	b.res.set("server.hist_rate_p50_us", p50, "us")
	b.res.set("server.hist_rate_p99_us", p99, "us")
	if a := st.Admission; a != nil {
		b.res.set("admission.yields", float64(a.Yields), "count")
		b.res.set("admission.waited_ms", a.WaitedMS, "ms")
	}
}

func (b *bench) reportGC(smp *sampler) {
	b.res.set("runtime.gc_cycles", smp.gcCycles(), "count")
	b.res.set("runtime.gc_pause_ms", smp.gcPauseMS(), "ms")
}
