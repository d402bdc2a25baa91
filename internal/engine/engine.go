// Package engine is the shared concurrent run-execution subsystem: one
// scheduler and one result cache behind every layer that fans out
// closed-loop simulations (the MRF searches in metrics, the Table-1 /
// headline / baseline campaigns in experiments, and the CLIs).
//
// The paper's validation protocol (§4.2, Table 1) is embarrassingly
// parallel — every measurement is a seeded run at a (scenario, FPR,
// seed) point — so the engine models exactly that: a Job names a point,
// a worker pool sized to runtime.GOMAXPROCS executes points, and an
// in-memory cache keyed by the point guarantees repeated campaigns
// (an MRF search followed by a Table-1 estimate pass, collision-rate
// curves, ablations) never re-simulate a point the process has already
// run. Runs are deterministic in (scenario, FPR, seed), which is what
// makes the cache sound.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// Runner executes one job. The default runner builds the scenario's
// simulator configuration, applies the job's Configure hook, and runs
// the closed-loop simulation; tests inject fakes.
type Runner func(Job) (*sim.Result, error)

// DefaultRunner is the production runner: one seeded closed-loop
// simulation of the scenario at the job's rate. The recording level is
// the lesser of what the built configuration declares (a spec-declared
// level survives the engine path) and the job's engine-stamped level —
// unless the point will be archived, in which case the engine requires
// a full trace and the job says so (fullForStore). Configure may still
// override cfg.Record.
func DefaultRunner(j Job) (*sim.Result, error) {
	cfg := j.Scenario.Build(j.FPR, j.Seed)
	switch {
	case j.fullForStore:
		cfg.Record = trace.LevelFull
	case j.Record > cfg.Record:
		cfg.Record = j.Record // the engine's policy records less than the spec declares
	}
	if j.Configure != nil {
		j.Configure(&cfg)
	}
	return sim.Run(cfg)
}

// Options configures an Engine.
type Options struct {
	// Workers is the scheduler's pool size. 0 defaults to
	// runtime.GOMAXPROCS(0): simulations are CPU-bound.
	Workers int
	// CacheSize bounds the number of retained results (FIFO eviction of
	// completed entries). 0 defaults to 2048; negative disables caching
	// entirely.
	CacheSize int
	// Runner executes jobs; nil defaults to DefaultRunner.
	Runner Runner
	// Store attaches a persistent cache tier: plain jobs (no Variant,
	// no Configure, not NoCache) missing the in-memory cache are looked
	// up on disk before simulating — a hit loads the archived trace
	// instead of running — and every fresh successful plain run is
	// archived back (the record hook). Store errors never fail a run:
	// the point falls through to a fresh simulation and the error is
	// counted in Stats.StoreErrors. nil disables the tier.
	Store *store.Store
	// Record is the trace recording level the engine runs its jobs at.
	// The zero value is trace.LevelFull. Engines whose consumers only
	// read summaries — the campaign server's NDJSON stream, MRF/rate
	// CLIs, corpus sweeps — set LevelSummary and skip per-step row
	// materialization, the dominant allocation of a run. A scenario
	// whose spec declares a lesser level keeps it (the default runner
	// records the lesser of policy and spec). Store-recorded runs
	// always stay LevelFull regardless: a persistable job on a
	// store-attached engine must produce an archivable trace (the
	// persistent tier refuses anything less). The level is an engine
	// policy, not a per-job knob, so cache entries are level-consistent
	// per key and a hit can never return less than the caller expects.
	Record trace.Level
	// Admission, when set, is the serving tier's priority gate: workers
	// call Yield on it between jobs, briefly parking while a
	// latency-sensitive request (POST /v1/rate) is in flight so batch
	// campaigns cannot starve the serving path of cores. The park is
	// bounded (admission.Gate.MaxWait), so campaigns always retain
	// liveness. nil disables yielding.
	Admission *admission.Gate
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CacheSize == 0 {
		o.CacheSize = 2048
	}
	if o.Runner == nil {
		o.Runner = DefaultRunner
	}
	return o
}

// Job is one schedulable run: a (scenario, FPR, seed) point, optionally
// specialized by a configuration hook.
type Job struct {
	Scenario scenario.Scenario
	FPR      float64
	Seed     int64
	// Variant discriminates non-default run configurations (e.g. a rate
	// controller attached via Configure) in the cache key, so they never
	// alias the plain run at the same point. Empty for plain runs.
	Variant string
	// NoCache schedules the job through the pool but bypasses the cache
	// on both lookup and store. Required when Configure captures state
	// the caller reads back after the run (controller alarm counts):
	// serving such a job from cache would skip the side effects.
	NoCache bool
	// Configure mutates the built simulator configuration before the
	// run. Only the default runner applies it. A job with a Configure
	// hook must carry a Variant or NoCache so it cannot alias the plain
	// run's cache slot; the engine forces NoCache otherwise.
	Configure func(*sim.Config)
	// Record is the job's engine-stamped trace recording level, assigned
	// from Options.Record before the job reaches the Runner; caller-set
	// values are overwritten. The default runner records at the lesser
	// of this and any level the scenario's own spec declares, except
	// when fullForStore demands an archivable trace.
	Record trace.Level
	// fullForStore marks a persistable job on a store-attached engine:
	// the run must produce a full trace for the archive hook, whatever
	// the engine policy or the spec declare.
	fullForStore bool
}

// Key is the cache identity of a job.
type Key struct {
	Scenario string
	FPR      float64
	Seed     int64
	Variant  string
}

func (j Job) key() Key {
	return Key{Scenario: j.Scenario.Name, FPR: j.FPR, Seed: j.Seed, Variant: j.Variant}
}

// persistable reports whether the job's result may be served from or
// archived to the persistent store: only plain (scenario, FPR, seed)
// points qualify — the store key carries no variant, and Configure
// hooks change the run in ways the key cannot see.
func (j Job) persistable() bool {
	return j.Variant == "" && j.Configure == nil && !j.NoCache
}

// Source says where a job's result came from.
type Source int

// Result sources, in increasing cheapness.
const (
	// SourceFresh — the simulation actually ran.
	SourceFresh Source = iota
	// SourceMemory — served from the in-memory cache, or joined an
	// execution another caller already had in flight.
	SourceMemory
	// SourceDisk — loaded from the persistent store; no simulation.
	SourceDisk
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case SourceMemory:
		return "memory"
	case SourceDisk:
		return "disk"
	default:
		return "fresh"
	}
}

// Outcome pairs a job with its result.
type Outcome struct {
	Job    Job
	Result *sim.Result
	Source Source // fresh simulation, memory cache, or persistent store
	Cached bool   // Source != SourceFresh (kept for call-site brevity)
	Err    error
}

// CampaignStats summarizes one batch submission.
type CampaignStats struct {
	Jobs      int // points submitted
	Executed  int // simulations actually run by this campaign
	CacheHits int // points served from the memory cache or a shared in-flight run
	DiskHits  int // points loaded from the persistent store
	Failures  int // runs that returned a real error
	Skipped   int // points cancelled before execution (first-error propagation)
	Wall      time.Duration
}

// BatchResult is the outcome of RunBatch: per-job outcomes in
// submission order plus campaign stats.
type BatchResult struct {
	Outcomes []Outcome
	Stats    CampaignStats
}

// Stats are engine-lifetime counters.
type Stats struct {
	Executed    int64 // simulations run
	CacheHits   int64 // memory-cache hits (including joined in-flight runs)
	DiskHits    int64 // persistent-store hits
	Archived    int64 // fresh runs written to the persistent store
	Failures    int64
	StoreErrors int64 // store lookups/archives that failed (runs unaffected)
	// ManifestHits counts Peek answers: queries satisfied from the
	// manifest summary alone, no artifact decode and no simulation (each
	// also counts as a DiskHit). The fabric coordinator's warm tier runs
	// entirely on these.
	ManifestHits int64
	// ArchivePending gauges the async archiver's backlog: fresh results
	// handed to the background store writer but not yet on disk. Zero
	// after any Drain/RunBatch return.
	ArchivePending int64
	// LockstepGroups and LockstepRuns always read 0: the engine runs
	// every job as its own simulation. They remain only because the
	// benchmark harness still reports them.
	LockstepGroups int64
	LockstepRuns   int64
}

// entry is a cache slot doubling as the singleflight rendezvous:
// whoever creates it owns the execution, everyone else waits on done.
type entry struct {
	done chan struct{}
	res  *sim.Result
	err  error
}

type task struct {
	ctx        context.Context
	job        Job
	ent        *entry
	registered bool // ent lives in the cache map
}

// Engine schedules runs onto a fixed worker pool and caches results.
// The zero value is not usable; construct with New. An Engine is safe
// for concurrent use and is intended to be long-lived (its workers are
// daemon goroutines started on first use).
type Engine struct {
	opts Options

	start sync.Once

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*task
	closed bool
	cache  map[Key]*entry
	order  []Key // insertion order for FIFO eviction

	// diskSem bounds concurrent persistent-tier artifact loads to the
	// pool size: disk hits run on the submitting goroutine (RunBatch
	// spawns one per job), and an unbounded warm campaign would
	// otherwise decompress and decode hundreds of traces at once.
	diskSem chan struct{}

	// arch is the bounded async archiver (nil without a store): fresh
	// results are enqueued before waiters unblock and written to the
	// store off the waiter path. RunBatch and Drain flush it.
	arch *archiver

	executed     atomic.Int64
	cacheHits    atomic.Int64
	diskHits     atomic.Int64
	manifestHits atomic.Int64
	archived     atomic.Int64
	failures     atomic.Int64
	storeErrs    atomic.Int64
}

// New builds an engine. Workers are started lazily on first submission.
func New(opts Options) *Engine {
	e := &Engine{opts: opts.withDefaults(), cache: make(map[Key]*entry)}
	e.cond = sync.NewCond(&e.mu)
	e.diskSem = make(chan struct{}, e.opts.Workers)
	if e.opts.Store != nil {
		// Bound the backlog at a few results per worker: deep enough that
		// bursts of fast summary runs never stall on fsync, small enough
		// that full traces queued for archiving stay a bounded memory cost.
		bound := 4 * e.opts.Workers
		if bound < 16 {
			bound = 16
		}
		e.arch = newArchiver(e, bound)
	}
	return e
}

var defaultEngine = struct {
	once sync.Once
	e    *Engine
}{}

// Default returns the process-wide shared engine, creating it with
// default options on first use. Sharing one engine across layers is
// what lets a Table-1 estimate pass reuse the MRF search's runs.
func Default() *Engine {
	defaultEngine.once.Do(func() { defaultEngine.e = New(Options{}) })
	return defaultEngine.e
}

// Workers reports the pool size.
func (e *Engine) Workers() int { return e.opts.Workers }

// Store returns the persistent store attached at construction, or nil.
// Layers above the engine (the campaign server's /v1/store endpoints,
// the CLIs' stats lines) use it to answer manifest queries against the
// same tier the engine warm-starts from.
func (e *Engine) Store() *store.Store { return e.opts.Store }

// Stats snapshots the engine-lifetime counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Executed:     e.executed.Load(),
		CacheHits:    e.cacheHits.Load(),
		DiskHits:     e.diskHits.Load(),
		Archived:     e.archived.Load(),
		Failures:     e.failures.Load(),
		StoreErrors:  e.storeErrs.Load(),
		ManifestHits: e.manifestHits.Load(),

		ArchivePending: e.archivePending(),
	}
}

func (e *Engine) startWorkers() {
	e.start.Do(func() {
		for i := 0; i < e.opts.Workers; i++ {
			go e.worker()
		}
	})
}

func (e *Engine) worker() {
	for {
		e.mu.Lock()
		for len(e.queue) == 0 && !e.closed {
			e.cond.Wait()
		}
		if len(e.queue) == 0 {
			// Closed and drained: the pool winds down.
			e.mu.Unlock()
			return
		}
		t := e.queue[0]
		e.queue = e.queue[1:]
		e.mu.Unlock()
		e.opts.Admission.Yield()
		e.execute(t)
	}
}

// ErrClosed is returned for jobs submitted after Close.
var ErrClosed = errors.New("engine: closed")

func (e *Engine) enqueue(t *task) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.finish(t, nil, ErrClosed)
		return
	}
	e.queue = append(e.queue, t)
	e.mu.Unlock()
	e.cond.Signal()
}

// Close winds the pool down: queued and in-flight jobs complete, then
// the workers exit. Jobs submitted afterwards fail with ErrClosed.
// The async archiver is flushed before Close returns — every result it
// held is on disk — and results archived by still-running workers
// afterwards are written synchronously. Cached results remain readable
// only through jobs already joined; use Close for short-lived engines
// (benchmarks, one-shot campaigns) so their workers don't outlive
// them. The shared Default engine is never closed.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.cond.Broadcast()
	if e.arch != nil {
		e.arch.close()
	}
}

// Drain blocks until the async archiver's backlog is on disk. Callers
// that use single Run submissions and then read the store directly —
// or a serving process shutting down on SIGTERM — drain first; RunBatch
// campaigns drain implicitly before returning.
func (e *Engine) Drain() {
	if e.arch != nil {
		e.arch.drain()
	}
}

// archivePending reports the async archiver's backlog gauge.
func (e *Engine) archivePending() int64 {
	if e.arch == nil {
		return 0
	}
	return e.arch.pending()
}

// enqueueArchive routes a fresh result to the async archiver — before
// the task finishes, so a later Drain is guaranteed to cover it — or
// archives synchronously when no archiver exists (no store) or it has
// been closed. Non-persistable results are dropped here without
// touching the queue.
func (e *Engine) enqueueArchive(j Job, res *sim.Result) {
	if e.opts.Store == nil || !j.persistable() || res == nil {
		return
	}
	if e.arch == nil {
		e.archive(j, res)
		return
	}
	e.arch.enqueue(j, res)
}

func (e *Engine) execute(t *task) {
	if err := t.ctx.Err(); err != nil {
		e.finish(t, nil, err)
		return
	}
	res, err := e.opts.Runner(t.job)
	if err != nil {
		e.failures.Add(1)
	}
	e.executed.Add(1)
	if err == nil {
		// Record hook: hand the fresh run to the async archiver before
		// waiters unblock. Enqueueing (not writing) happens first, so a
		// campaign that has returned — RunBatch drains the archiver —
		// still finds every one of its runs on disk, while the waiters
		// themselves no longer pay for serialization and fsync.
		e.enqueueArchive(t.job, res)
	}
	e.finish(t, res, err)
}

// archive writes a fresh successful plain run to the persistent store.
// Store failures are counted, never propagated: the simulation itself
// succeeded. Non-full results never reach the store: the engine runs
// persistable jobs at trace.LevelFull, and if an injected runner
// ignores that, store.Put's own level guard rejects the result and the
// rejection is counted here.
func (e *Engine) archive(j Job, res *sim.Result) {
	if e.opts.Store == nil || !j.persistable() || res == nil {
		return
	}
	_, created, err := e.opts.Store.Put(j.Scenario.Name, store.KeyForScenario(j.Scenario, j.FPR, j.Seed), res)
	if err != nil {
		e.storeErrs.Add(1)
		return
	}
	if created {
		e.archived.Add(1)
	}
}

// Peek returns the persistent store's manifest entry for a plain job
// without loading or decoding its trace artifact. Campaigns that only
// need a run's summary — an MRF collision wave reads nothing but the
// collision outcome — use it to skip both the simulation and the
// artifact decode; the entry's summary fields are exactly what the
// full result would report. Peek hits count as disk hits.
func (e *Engine) Peek(j Job) (store.Entry, bool) {
	if e.opts.Store == nil || !j.persistable() {
		return store.Entry{}, false
	}
	ent, ok := e.opts.Store.Lookup(store.KeyForScenario(j.Scenario, j.FPR, j.Seed))
	if ok {
		e.diskHits.Add(1)
		e.manifestHits.Add(1)
	}
	return ent, ok
}

// storeLookup tries the persistent tier for a plain job. Lookup errors
// degrade to a miss (the point re-simulates) and are counted.
func (e *Engine) storeLookup(j Job) (*sim.Result, bool) {
	if e.opts.Store == nil || !j.persistable() {
		return nil, false
	}
	e.diskSem <- struct{}{}
	defer func() { <-e.diskSem }()
	res, ok, err := e.opts.Store.Get(store.KeyForScenario(j.Scenario, j.FPR, j.Seed))
	if err != nil {
		e.storeErrs.Add(1)
		return nil, false
	}
	if ok {
		e.diskHits.Add(1)
	}
	return res, ok
}

// finish publishes the task's outcome. Failures are never cached:
// cancellations and shutdown rejections mean the point was not actually
// measured, and run errors may be transient (the runner is injectable),
// so a later campaign must be able to schedule the point again. Only
// successful results are retained.
func (e *Engine) finish(t *task, res *sim.Result, err error) {
	t.ent.res, t.ent.err = res, err
	if t.registered && err != nil {
		e.mu.Lock()
		if e.cache[t.job.key()] == t.ent {
			delete(e.cache, t.job.key())
		}
		e.mu.Unlock()
	}
	close(t.ent.done)
}

// effectiveLevel resolves the recording level a job runs at: the
// engine's configured level, upgraded to full for persistable jobs on
// a store-attached engine (the archive hook needs a complete trace —
// the fullForStore flag tells the runner the upgrade is mandatory and
// overrides even a spec-declared level).
func (e *Engine) effectiveLevel(j Job) (trace.Level, bool) {
	if e.opts.Store != nil && j.persistable() {
		return trace.LevelFull, true
	}
	return e.opts.Record, false
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Run executes one job, serving it from the memory cache or the
// persistent store when possible. It blocks until the result is
// available or ctx is cancelled.
func (e *Engine) Run(ctx context.Context, job Job) (*sim.Result, error) {
	res, _, err := e.run(ctx, job)
	return res, err
}

// run reports where the result came from: a fresh simulation, the
// memory cache (including joining a run another caller already had in
// flight), or the persistent store.
func (e *Engine) run(ctx context.Context, job Job) (*sim.Result, Source, error) {
	e.startWorkers()
	if job.Configure != nil && job.Variant == "" {
		// Un-discriminated configured runs would poison the plain run's
		// cache slot at the same point.
		job.NoCache = true
	}
	job.Record, job.fullForStore = e.effectiveLevel(job)
	cacheable := !job.NoCache && e.opts.CacheSize > 0
	if cacheable {
		key := job.key()
		for {
			e.mu.Lock()
			ent, ok := e.cache[key]
			if !ok {
				// Claim the point: we own the execution, later callers
				// join it through the entry. Wait unconditionally: the
				// worker finishes every task — with ctx's error when
				// cancelled before starting — so jobs that did start
				// always report their real outcome, never a spurious
				// cancellation.
				ent = &entry{done: make(chan struct{})}
				e.cache[key] = ent
				e.order = append(e.order, key)
				e.evictLocked()
				e.mu.Unlock()
				// Persistent tier: a disk hit fills the claimed slot
				// without simulating; joiners see a plain memory hit.
				if res, hit := e.storeLookup(job); hit {
					ent.res = res
					close(ent.done)
					return res, SourceDisk, nil
				}
				e.enqueue(&task{ctx: ctx, job: job, ent: ent, registered: true})
				<-ent.done
				return ent.res, SourceFresh, ent.err
			}
			e.mu.Unlock()
			select {
			case <-ent.done:
				if !isCancellation(ent.err) {
					e.cacheHits.Add(1)
					return ent.res, SourceMemory, ent.err
				}
				// The owner was cancelled before the point ran; loop
				// and try to claim it ourselves.
			case <-ctx.Done():
				return nil, SourceFresh, ctx.Err()
			}
		}
	}

	// Memory caching disabled: the persistent tier still serves plain
	// points (NoCache jobs are not persistable and always execute).
	if res, hit := e.storeLookup(job); hit {
		return res, SourceDisk, nil
	}
	ent := &entry{done: make(chan struct{})}
	t := &task{ctx: ctx, job: job, ent: ent}
	e.enqueue(t)
	<-ent.done
	return ent.res, SourceFresh, ent.err
}

// evictLocked drops the oldest completed entries until the cache fits.
// In-flight entries are skipped: evicting one would detach waiters.
func (e *Engine) evictLocked() {
	for len(e.cache) > e.opts.CacheSize {
		evicted := false
		for i, key := range e.order {
			ent, ok := e.cache[key]
			if !ok {
				e.order = append(e.order[:i], e.order[i+1:]...)
				evicted = true
				break
			}
			select {
			case <-ent.done:
				delete(e.cache, key)
				e.order = append(e.order[:i], e.order[i+1:]...)
				evicted = true
			default:
				continue
			}
			break
		}
		if !evicted {
			return // everything in flight; let the cache overshoot
		}
	}
}

// RunJob executes one job and reports its full outcome, including the
// tier that answered it (fresh simulation, memory cache, or persistent
// store). Run is the error-pair convenience; RunJob is for callers —
// the campaign server, stats-printing CLIs — that surface the source.
func (e *Engine) RunJob(ctx context.Context, job Job) Outcome {
	res, src, err := e.run(ctx, job)
	return Outcome{Job: job, Result: res, Source: src, Cached: src != SourceFresh, Err: err}
}

// RunBatch submits a campaign: all jobs are scheduled onto the shared
// pool and execute concurrently up to the worker limit. The first real
// run error cancels the jobs that have not started yet (first-error
// propagation); jobs already running complete. The returned error joins
// every real run error (errors.Join); cancellations of skipped jobs are
// reported per-outcome but not joined. Outcomes align with jobs by
// index.
func (e *Engine) RunBatch(ctx context.Context, jobs []Job) (*BatchResult, error) {
	return e.RunBatchFunc(ctx, jobs, nil)
}

// RunBatchFunc is RunBatch with a completion hook: fn (when non-nil) is
// invoked once per job, in completion order, as soon as that job's
// outcome is known — while the rest of the campaign is still running.
// Calls to fn are serialized by the engine, so fn may write to a shared
// sink (the campaign server streams one NDJSON line per call) without
// its own locking; i is the job's submission index. The returned
// BatchResult still carries every outcome in submission order.
func (e *Engine) RunBatchFunc(ctx context.Context, jobs []Job, fn func(i int, o Outcome)) (*BatchResult, error) {
	startAt := time.Now()
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()

	outcomes := make([]Outcome, len(jobs))
	var emit sync.Mutex
	deliver := func(i int, o Outcome) {
		outcomes[i] = o
		if o.Err != nil && !isCancellation(o.Err) {
			cancel()
		}
		if fn != nil {
			emit.Lock()
			fn(i, o)
			emit.Unlock()
		}
	}

	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j Job) {
			defer wg.Done()
			deliver(i, e.RunJob(bctx, j))
		}(i, j)
	}
	wg.Wait()
	// Flush the async archiver: every fresh run was enqueued before its
	// task finished, so after this a returned campaign's runs are all on
	// disk — same contract as when archiving was synchronous.
	e.Drain()

	br := &BatchResult{Outcomes: outcomes}
	br.Stats.Jobs = len(jobs)
	var errs []error
	for _, o := range outcomes {
		switch {
		case o.Err == nil && o.Source == SourceMemory:
			br.Stats.CacheHits++
		case o.Err == nil && o.Source == SourceDisk:
			br.Stats.DiskHits++
		case o.Err == nil:
			br.Stats.Executed++
		case isCancellation(o.Err):
			br.Stats.Skipped++
		default:
			br.Stats.Failures++
			br.Stats.Executed++
			errs = append(errs, fmt.Errorf("engine: scenario %s fpr %g seed %d: %w", o.Job.Scenario.Name, o.Job.FPR, o.Job.Seed, o.Err))
		}
	}
	br.Stats.Wall = time.Since(startAt)
	if err := errors.Join(errs...); err != nil {
		return br, err
	}
	// No run failed but points were skipped: the caller's own context
	// was cancelled mid-campaign.
	if err := ctx.Err(); err != nil {
		return br, err
	}
	return br, nil
}
