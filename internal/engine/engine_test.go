package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
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
	return scenario.Spec{Name: name}.Scenario()
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
		if second.Outcomes[i].Source != SourceMemory {
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

// TestEviction: the bounded cache re-executes evicted points.
func TestEviction(t *testing.T) {
	fr := &fakeRunner{}
	e := New(Options{Workers: 1, Runner: fr.run})
	sc := fakeScenario("s")
	ctx := context.Background()
	for i := 0; i <= cacheSize; i++ {
		if _, err := e.Run(ctx, Job{Scenario: sc, FPR: 1, Seed: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Seed 0 was evicted (FIFO); re-running it executes again.
	if _, err := e.Run(ctx, Job{Scenario: sc, FPR: 1, Seed: 0}); err != nil {
		t.Fatal(err)
	}
	if got, want := fr.calls.Load(), int64(cacheSize+2); got != want {
		t.Errorf("calls = %d, want %d (eviction + re-run)", got, want)
	}
	// The newest point must still be cached.
	if _, err := e.Run(ctx, Job{Scenario: sc, FPR: 1, Seed: cacheSize}); err != nil {
		t.Fatal(err)
	}
	if got, want := fr.calls.Load(), int64(cacheSize+2); got != want {
		t.Errorf("calls = %d after cached re-run, want %d", got, want)
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

// TestConfigureRequiresDiscriminator: a job with a Configure hook always
// executes — before and after the plain run at its point is cached —
// and never poisons the plain run's cache slot.
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
	// The plain point is still the cached plain run.
	if out := e.RunJob(ctx, Job{Scenario: sc, FPR: 5, Seed: 1}); out.Err != nil || out.Source != SourceMemory {
		t.Errorf("plain rerun: source %v, err %v; want a memory hit", out.Source, out.Err)
	}
	if got := fr.calls.Load(); got != 3 {
		t.Errorf("runner calls = %d after the plain rerun, want 3", got)
	}
}

// TestDefaultOptions: pool size and runner defaults (the cache bound is
// the cacheSize constant, which TestEviction exercises).
func TestDefaultOptions(t *testing.T) {
	e := New(Options{})
	if e.Workers() < 1 {
		t.Errorf("workers = %d", e.Workers())
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
	if o := e.RunJob(context.Background(), j); o.Source != SourceFresh {
		t.Errorf("first run: source %v, want fresh", o.Source)
	}
	if o := e.RunJob(context.Background(), j); o.Source != SourceMemory {
		t.Errorf("second run: source %v, want memory", o.Source)
	}
}

// TestSameNameSpecsNeverAlias: the memory cache keys a point on the
// spec's content, so two specs that share a name but differ in ego
// speed both simulate, and each gets its own result.
func TestSameNameSpecsNeverAlias(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	slow := scenario.Table1Specs()[0]
	fast := slow
	fast.EgoSpeedMPH += 10
	var res [2]*sim.Result
	for i, sp := range []scenario.Spec{slow, fast} {
		o := e.RunJob(context.Background(), Job{Scenario: sp.Scenario(), FPR: 30, Seed: 1})
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		if o.Source != SourceFresh {
			t.Fatalf("spec %d (%g mph): source %v, want fresh", i, sp.EgoSpeedMPH, o.Source)
		}
		res[i] = o.Result
	}
	if v0, v1 := res[0].Trace.Rows[0].Ego.Speed, res[1].Trace.Rows[0].Ego.Speed; v0 == v1 {
		t.Errorf("both specs report initial ego speed %g m/s; the second reused the first's run", v0)
	}
	if s := e.Stats(); s.Executed != 2 || s.CacheHits != 0 {
		t.Errorf("stats = %+v, want 2 executed and no memory hits", s)
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

// blockedRunner returns fr's runner, blocked until release is closed
// on every job block picks.
func blockedRunner(fr *fakeRunner, release <-chan struct{}, block func(Job) bool) Runner {
	return func(j Job) (*sim.Result, error) {
		if block(j) {
			<-release
		}
		return fr.run(j)
	}
}

// waitQueued polls until the engine's queue holds n tasks.
func waitQueued(t *testing.T, e *Engine, n int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		e.mu.Lock()
		queued := len(e.queue)
		e.mu.Unlock()
		if queued == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue holds %d tasks, want %d", queued, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunBatchGoroutinesBounded: a batch costs no goroutine per point.
// 5,000 misses queue behind runners that block until released; while
// they wait, the process runs at most its baseline goroutines plus the
// pool, the batch's caller and a small constant.
func TestRunBatchGoroutinesBounded(t *testing.T) {
	const jobs, workers, slack = 5000, 4, 8
	release := make(chan struct{})
	fr := &fakeRunner{}
	e := New(Options{Workers: workers, Runner: blockedRunner(fr, release, func(Job) bool { return true })})
	defer e.Close()
	batch := gridJobs(fakeScenario("bound"), []float64{1}, jobs)

	base := runtime.NumGoroutine()
	type result struct {
		br  *BatchResult
		err error
	}
	out := make(chan result, 1)
	go func() {
		br, err := e.RunBatch(context.Background(), batch)
		out <- result{br, err}
	}()
	waitQueued(t, e, jobs-workers)
	n := runtime.NumGoroutine()
	close(release)
	r := <-out
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.br.Stats.Executed != jobs {
		t.Errorf("stats = %+v, want %d executed", r.br.Stats, jobs)
	}
	if limit := base + workers + 1 + slack; n > limit {
		t.Errorf("%d goroutines with %d jobs queued (baseline %d, limit %d): a goroutine per point", n, jobs, base, limit)
	}
}

// TestRunBatchJoinerResubmitsCancelledOwner races two overlapping
// batches (CI runs it with -race -count=10). Batch A owns every point
// of a grid; batch B joins them all, and then A is cancelled while its
// first point runs. Every job of both batches gets exactly one fn call:
// A's running point is fresh and the rest are skipped, while B joins
// the running point as a memory hit and resubmits and runs every point
// A skipped.
func TestRunBatchJoinerResubmitsCancelledOwner(t *testing.T) {
	sc := fakeScenario("overlap")
	grid := gridJobs(sc, []float64{1, 2, 3}, 4)
	warm := Job{Scenario: sc, FPR: 99, Seed: 1}
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	fr := &fakeRunner{}
	e := New(Options{Workers: 1, Runner: blockedRunner(fr, release, func(j Job) bool {
		if j.key() != grid[0].key() {
			return false
		}
		entered <- struct{}{}
		return true
	})})
	defer e.Close()
	if _, err := e.Run(context.Background(), warm); err != nil {
		t.Fatal(err)
	}

	type record struct {
		mu    sync.Mutex
		calls map[int]int
		outs  map[int]Outcome
	}
	hook := func(r *record, last chan<- struct{}) func(int, Outcome) {
		r.calls, r.outs = map[int]int{}, map[int]Outcome{}
		return func(i int, o Outcome) {
			r.mu.Lock()
			r.calls[i]++
			r.outs[i] = o
			r.mu.Unlock()
			if last != nil && i == len(grid) {
				close(last) // B's warm hit comes after every join
			}
		}
	}
	var a, b record
	actx, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	aErr, bErr := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := e.RunBatchFunc(actx, grid, hook(&a, nil))
		aErr <- err
	}()
	<-entered
	waitQueued(t, e, len(grid)-1)
	bSubmitted := make(chan struct{})
	go func() {
		_, err := e.RunBatchFunc(context.Background(), append(append([]Job(nil), grid...), warm), hook(&b, bSubmitted))
		bErr <- err
	}()
	<-bSubmitted
	cancelA()
	close(release)
	if err := <-aErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("batch A error = %v, want context.Canceled", err)
	}
	if err := <-bErr; err != nil {
		t.Fatalf("batch B: %v", err)
	}

	for i := range grid {
		if a.calls[i] != 1 || b.calls[i] != 1 {
			t.Fatalf("job %d: fn called %d times in A and %d in B, want once each", i, a.calls[i], b.calls[i])
		}
		ao, bo := a.outs[i], b.outs[i]
		if i == 0 {
			if ao.Err != nil || ao.Source != SourceFresh || bo.Err != nil || bo.Source != SourceMemory {
				t.Errorf("running point: A %v/%v, B %v/%v; want fresh and a memory hit", ao.Source, ao.Err, bo.Source, bo.Err)
			}
			continue
		}
		if !errors.Is(ao.Err, context.Canceled) {
			t.Errorf("job %d: A err %v, want skipped", i, ao.Err)
		}
		if bo.Err != nil || bo.Source != SourceFresh || bo.Result == nil {
			t.Errorf("job %d: B %v/%v, want a fresh run after resubmitting", i, bo.Source, bo.Err)
		}
		if bo.Job.key() != grid[i].key() {
			t.Errorf("job %d: B's outcome names another job", i)
		}
	}
	if o := b.outs[len(grid)]; b.calls[len(grid)] != 1 || o.Source != SourceMemory {
		t.Errorf("warm point: %d calls, source %v; want one memory hit", b.calls[len(grid)], o.Source)
	}
	if got, want := fr.calls.Load(), int64(1+len(grid)); got != want {
		t.Errorf("runner calls = %d, want %d (the warm point and each grid point once)", got, want)
	}
}

// TestEvictionWorkLinear: eviction examines each completed entry at
// most once and never an in-flight one. A batch of 4×cacheSize misses
// queues behind a blocked runner, so its claims fill the cache far past
// the bound while eviction does no work; once released, the batch's
// whole eviction work is at most one step per point, and the cache is
// back at its bound.
func TestEvictionWorkLinear(t *testing.T) {
	const jobs = 4 * cacheSize
	release := make(chan struct{})
	fr := &fakeRunner{}
	e := New(Options{Workers: 1, Runner: blockedRunner(fr, release, func(Job) bool { return true })})
	defer e.Close()
	out := make(chan error, 1)
	go func() {
		_, err := e.RunBatch(context.Background(), gridJobs(fakeScenario("evict"), []float64{1}, jobs))
		out <- err
	}()
	waitQueued(t, e, jobs-1)
	e.mu.Lock()
	work, size := e.evictWork, len(e.cache)
	e.mu.Unlock()
	if work != 0 || size != jobs {
		t.Errorf("all in flight: eviction work %d, cache size %d; want 0 and %d", work, size, jobs)
	}
	close(release)
	if err := <-out; err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	work, size = e.evictWork, len(e.cache)
	e.mu.Unlock()
	if work > jobs || size != cacheSize {
		t.Errorf("after the batch: eviction work %d, cache size %d; want at most %d and %d", work, size, jobs, cacheSize)
	}
}
