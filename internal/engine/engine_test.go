package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fakeScenario builds a named scenario whose Build is never invoked
// (tests inject a fake runner).
func fakeScenario(name string) scenario.Scenario {
	return scenario.Scenario{Name: name}
}

// fakeRunner fabricates deterministic results and counts executions.
type fakeRunner struct {
	calls atomic.Int64
	delay time.Duration
	// collide decides the outcome per job; nil means never.
	collide func(Job) bool
	// fail returns an error per job; nil means never.
	fail func(Job) error
}

func (f *fakeRunner) run(j Job) (*sim.Result, error) {
	f.calls.Add(1)
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if f.fail != nil {
		if err := f.fail(j); err != nil {
			return nil, err
		}
	}
	res := &sim.Result{MinBumperGap: j.FPR + float64(j.Seed)}
	if f.collide != nil && f.collide(j) {
		res.Collision = &trace.Collision{Time: 1, ActorID: "lead"}
	}
	return res, nil
}

func gridJobs(sc scenario.Scenario, fprs []float64, seeds int) []Job {
	var jobs []Job
	for _, f := range fprs {
		for s := 1; s <= seeds; s++ {
			jobs = append(jobs, Job{Scenario: sc, FPR: f, Seed: int64(s)})
		}
	}
	return jobs
}

// TestCampaignCacheDeterminism runs the same campaign twice: the second
// pass must be 100% cache hits with results identical to the first.
func TestCampaignCacheDeterminism(t *testing.T) {
	fr := &fakeRunner{}
	e := New(Options{Workers: 4, Runner: fr.run})
	jobs := gridJobs(fakeScenario("s"), []float64{1, 5, 30}, 4)

	first, err := e.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Executed != len(jobs) || first.Stats.CacheHits != 0 {
		t.Fatalf("first pass stats = %+v", first.Stats)
	}
	if got := fr.calls.Load(); got != int64(len(jobs)) {
		t.Fatalf("runner calls = %d, want %d", got, len(jobs))
	}

	second, err := e.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.CacheHits != len(jobs) || second.Stats.Executed != 0 {
		t.Fatalf("second pass stats = %+v, want all cache hits", second.Stats)
	}
	if got := fr.calls.Load(); got != int64(len(jobs)) {
		t.Fatalf("runner re-invoked: calls = %d", got)
	}
	for i := range jobs {
		if first.Outcomes[i].Result != second.Outcomes[i].Result {
			t.Fatalf("outcome %d differs between passes", i)
		}
		if !second.Outcomes[i].Cached {
			t.Errorf("outcome %d not served from cache", i)
		}
	}
	if s := e.Stats(); s.Executed != int64(len(jobs)) || s.CacheHits != int64(len(jobs)) {
		t.Errorf("engine stats = %+v", s)
	}
}

// TestCancellationMidCampaign cancels while jobs are still queued: the
// batch must return promptly with skipped outcomes and ctx's error.
func TestCancellationMidCampaign(t *testing.T) {
	fr := &fakeRunner{delay: 20 * time.Millisecond}
	e := New(Options{Workers: 1, Runner: fr.run})
	jobs := gridJobs(fakeScenario("s"), []float64{1, 2, 3, 4, 5, 6, 7, 8}, 4)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	br, err := e.RunBatch(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error = %v, want context.Canceled", err)
	}
	if br.Stats.Skipped == 0 {
		t.Error("no jobs skipped despite cancellation")
	}
	if br.Stats.Executed >= len(jobs) {
		t.Errorf("all %d jobs executed despite cancellation", len(jobs))
	}
	// Cancelled points must not be cached: a fresh campaign re-runs them.
	br2, err := e.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if br2.Stats.Skipped != 0 || br2.Stats.Executed+br2.Stats.CacheHits != len(jobs) {
		t.Errorf("post-cancel campaign stats = %+v", br2.Stats)
	}
	for i, o := range br2.Outcomes {
		if o.Err != nil || o.Result == nil {
			t.Fatalf("outcome %d after re-run: %+v", i, o)
		}
	}
}

// TestFirstErrorPropagation: one failing job cancels the unstarted rest
// while the joined error names every real failure.
func TestFirstErrorPropagation(t *testing.T) {
	// RunBatch enqueues each job from its own goroutine, so queue order
	// is not submission order: fail whichever job runs first, which
	// leaves the rest of the batch still to be skipped.
	var started atomic.Int64
	fr := &fakeRunner{
		delay: 5 * time.Millisecond,
		fail: func(j Job) error {
			if started.Add(1) == 1 {
				return fmt.Errorf("boom at fpr %g seed %d", j.FPR, j.Seed)
			}
			return nil
		},
	}
	e := New(Options{Workers: 1, Runner: fr.run})
	jobs := gridJobs(fakeScenario("s"), []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 3)

	br, err := e.RunBatch(context.Background(), jobs)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("batch error = %v", err)
	}
	if br.Stats.Failures != 1 {
		t.Errorf("failures = %d, want 1", br.Stats.Failures)
	}
	if br.Stats.Skipped == 0 {
		t.Error("error did not cancel any queued jobs")
	}
	if br.Stats.Executed == len(jobs) {
		t.Error("every job ran despite first-error propagation")
	}
}

// TestErrorsJoined: multiple failures already in flight are all joined.
func TestErrorsJoined(t *testing.T) {
	var entered sync.WaitGroup
	entered.Add(2)
	fr := &fakeRunner{
		fail: func(j Job) error {
			// Barrier: both jobs start before either error can cancel
			// the batch, so both failures must be joined.
			entered.Done()
			entered.Wait()
			if j.Seed <= 2 {
				return fmt.Errorf("fail seed %d", j.Seed)
			}
			return nil
		},
	}
	e := New(Options{Workers: 4, Runner: fr.run})
	jobs := gridJobs(fakeScenario("s"), []float64{5}, 2)
	_, err := e.RunBatch(context.Background(), jobs)
	if err == nil {
		t.Fatal("no error")
	}
	for _, want := range []string{"fail seed 1", "fail seed 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
}

// TestFailuresNotCached: errors may be transient, so a failed point
// must be schedulable again — only successes are retained.
func TestFailuresNotCached(t *testing.T) {
	var calls atomic.Int64
	fr := &fakeRunner{fail: func(j Job) error {
		if calls.Add(1) == 1 {
			return errors.New("transient")
		}
		return nil
	}}
	e := New(Options{Workers: 2, Runner: fr.run})
	job := Job{Scenario: fakeScenario("s"), FPR: 5, Seed: 1}
	if _, err := e.Run(context.Background(), job); err == nil {
		t.Fatal("no error")
	}
	// The retry re-executes and succeeds instead of replaying the error.
	if _, err := e.Run(context.Background(), job); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("runner calls = %d, want 2 (failure not cached)", got)
	}
	// The success IS cached.
	if _, err := e.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("runner calls = %d after success, want 2", got)
	}
}

// TestNoCacheAndVariant: NoCache jobs always execute; Variant keys
// separate cache slots from the plain run at the same point.
func TestNoCacheAndVariant(t *testing.T) {
	fr := &fakeRunner{}
	e := New(Options{Workers: 2, Runner: fr.run})
	sc := fakeScenario("s")
	ctx := context.Background()

	plain := Job{Scenario: sc, FPR: 30, Seed: 1}
	if _, err := e.Run(ctx, plain); err != nil {
		t.Fatal(err)
	}
	variant := Job{Scenario: sc, FPR: 30, Seed: 1, Variant: "controller"}
	if _, err := e.Run(ctx, variant); err != nil {
		t.Fatal(err)
	}
	if got := fr.calls.Load(); got != 2 {
		t.Fatalf("variant aliased the plain run: calls = %d", got)
	}
	nocache := Job{Scenario: sc, FPR: 30, Seed: 1, NoCache: true}
	for i := 0; i < 2; i++ {
		if _, err := e.Run(ctx, nocache); err != nil {
			t.Fatal(err)
		}
	}
	if got := fr.calls.Load(); got != 4 {
		t.Errorf("NoCache served from cache: calls = %d, want 4", got)
	}
}

// TestEviction: a bounded cache re-executes evicted points.
func TestEviction(t *testing.T) {
	fr := &fakeRunner{}
	e := New(Options{Workers: 1, CacheSize: 2, Runner: fr.run})
	sc := fakeScenario("s")
	ctx := context.Background()
	for _, fpr := range []float64{1, 2, 3} {
		if _, err := e.Run(ctx, Job{Scenario: sc, FPR: fpr, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// FPR 1 was evicted (FIFO); re-running it executes again.
	if _, err := e.Run(ctx, Job{Scenario: sc, FPR: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if got := fr.calls.Load(); got != 4 {
		t.Errorf("calls = %d, want 4 (eviction + re-run)", got)
	}
	// FPR 3 must still be cached.
	if _, err := e.Run(ctx, Job{Scenario: sc, FPR: 3, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if got := fr.calls.Load(); got != 4 {
		t.Errorf("calls = %d after cached re-run, want 4", got)
	}
}

// TestConcurrentCampaignsSingleflight: overlapping campaigns on the
// same grid share executions instead of duplicating them. Run with
// -race this also exercises the scheduler's synchronization.
func TestConcurrentCampaignsSingleflight(t *testing.T) {
	fr := &fakeRunner{delay: time.Millisecond}
	e := New(Options{Workers: 4, Runner: fr.run})
	jobs := gridJobs(fakeScenario("s"), []float64{1, 2, 3, 4, 5}, 4)

	const campaigns = 8
	var wg sync.WaitGroup
	errs := make([]error, campaigns)
	for c := 0; c < campaigns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, errs[c] = e.RunBatch(context.Background(), jobs)
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("campaign %d: %v", c, err)
		}
	}
	if got := fr.calls.Load(); got != int64(len(jobs)) {
		t.Errorf("runner calls = %d, want %d (singleflight)", got, len(jobs))
	}
}

// TestClose: queued work completes, the pool winds down, and later
// submissions fail with ErrClosed instead of hanging.
func TestClose(t *testing.T) {
	fr := &fakeRunner{}
	e := New(Options{Workers: 2, Runner: fr.run})
	jobs := gridJobs(fakeScenario("s"), []float64{1, 2}, 2)
	if _, err := e.RunBatch(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if _, err := e.Run(context.Background(), Job{Scenario: fakeScenario("s"), FPR: 9, Seed: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Run error = %v, want ErrClosed", err)
	}
	// The rejection must not be cached as that point's result.
	if got := fr.calls.Load(); got != int64(len(jobs)) {
		t.Errorf("runner calls = %d, want %d", got, len(jobs))
	}
	e.Close() // idempotent
}

// TestConfigureRequiresDiscriminator: a Configure hook without a
// Variant is forced to NoCache so it cannot poison the plain run's
// cache slot.
func TestConfigureRequiresDiscriminator(t *testing.T) {
	fr := &fakeRunner{}
	e := New(Options{Workers: 1, Runner: fr.run})
	ctx := context.Background()
	sc := fakeScenario("s")
	configured := Job{Scenario: sc, FPR: 5, Seed: 1, Configure: func(*sim.Config) {}}
	if _, err := e.Run(ctx, configured); err != nil {
		t.Fatal(err)
	}
	// The plain run at the same point must execute fresh, and the
	// configured job must not be served from cache either.
	if _, err := e.Run(ctx, Job{Scenario: sc, FPR: 5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(ctx, configured); err != nil {
		t.Fatal(err)
	}
	if got := fr.calls.Load(); got != 3 {
		t.Errorf("runner calls = %d, want 3 (no aliasing)", got)
	}
}

// TestDefaultOptions: pool size and cache defaults.
func TestDefaultOptions(t *testing.T) {
	e := New(Options{})
	if e.Workers() < 1 {
		t.Errorf("workers = %d", e.Workers())
	}
	if e.opts.CacheSize != 2048 {
		t.Errorf("cache size = %d", e.opts.CacheSize)
	}
	if e.opts.Runner == nil {
		t.Error("nil default runner")
	}
}

// TestRunBatchFuncStreams: the completion hook fires exactly once per
// job, calls are serialized, and the batch result still carries every
// outcome in submission order.
func TestRunBatchFuncStreams(t *testing.T) {
	fr := &fakeRunner{delay: time.Millisecond}
	e := New(Options{Workers: 4, Runner: fr.run})
	defer e.Close()
	sc := fakeScenario("stream")
	jobs := gridJobs(sc, []float64{1, 2, 3}, 4)

	var mu sync.Mutex
	inHook := false
	seen := make(map[int]int)
	br, err := e.RunBatchFunc(context.Background(), jobs, func(i int, o Outcome) {
		mu.Lock()
		if inHook {
			t.Error("hook re-entered: calls are not serialized")
		}
		inHook = true
		mu.Unlock()
		seen[i]++
		if o.Err != nil {
			t.Errorf("job %d: %v", i, o.Err)
		}
		mu.Lock()
		inHook = false
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(jobs) {
		t.Fatalf("hook fired for %d jobs, want %d", len(seen), len(jobs))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("job %d: hook fired %d times", i, n)
		}
	}
	for i, o := range br.Outcomes {
		if o.Job.FPR != jobs[i].FPR || o.Job.Seed != jobs[i].Seed {
			t.Errorf("outcome %d misaligned with submission order", i)
		}
	}
}

// TestRunJobReportsSource: RunJob surfaces the tier that answered.
func TestRunJobReportsSource(t *testing.T) {
	fr := &fakeRunner{}
	e := New(Options{Workers: 2, Runner: fr.run})
	defer e.Close()
	j := Job{Scenario: fakeScenario("src"), FPR: 5, Seed: 1}
	if o := e.RunJob(context.Background(), j); o.Source != SourceFresh || o.Cached {
		t.Errorf("first run: source %v cached %v, want fresh", o.Source, o.Cached)
	}
	if o := e.RunJob(context.Background(), j); o.Source != SourceMemory || !o.Cached {
		t.Errorf("second run: source %v cached %v, want memory", o.Source, o.Cached)
	}
}

// TestRunBatchDefaultRunnerWorkerInvariant runs a Table-1-shaped rate
// sweep — many rates at one (scenario, seed) point — through the real
// simulator at one and at four workers: the summaries must not depend
// on how the pool scheduled the points.
func TestRunBatchDefaultRunnerWorkerInvariant(t *testing.T) {
	sc, ok := scenario.ByName(scenario.CutOut)
	if !ok {
		t.Fatal("cut-out not registered")
	}
	var jobs []Job
	for _, fpr := range []float64{30, 20, 15, 10, 7, 5, 3, 2, 1} {
		jobs = append(jobs, Job{Scenario: sc, FPR: fpr, Seed: 4})
	}
	run := func(workers int) *BatchResult {
		e := New(Options{Workers: workers, Record: trace.LevelSummary})
		defer e.Close()
		br, err := e.RunBatch(context.Background(), jobs)
		if err != nil {
			t.Fatalf("RunBatch(workers=%d): %v", workers, err)
		}
		return br
	}
	one, four := run(1), run(4)
	for i := range one.Outcomes {
		a, b := one.Outcomes[i], four.Outcomes[i]
		if a.Err != nil || b.Err != nil {
			t.Fatalf("job %d: errs %v / %v", i, a.Err, b.Err)
		}
		if !reflect.DeepEqual(a.Result.Collision, b.Result.Collision) ||
			a.Result.MinBumperGap != b.Result.MinBumperGap ||
			a.Result.EgoStopped != b.Result.EgoStopped ||
			!reflect.DeepEqual(a.Result.FramesProcessed, b.Result.FramesProcessed) {
			t.Errorf("job %d (fpr %g): 1 worker %+v, 4 workers %+v",
				i, a.Job.FPR, a.Result, b.Result)
		}
	}
}
