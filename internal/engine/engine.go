// Package engine is the concurrent run-execution subsystem: one
// scheduler and one result cache behind every layer that fans out
// closed-loop simulations (the MRF searches in metrics, the Table-1 /
// headline / baseline campaigns in experiments, and the CLIs). There
// is no process-wide engine: each process builds one with New and
// passes it to every campaign function.
//
// The paper's validation protocol (§4.2, Table 1) is embarrassingly
// parallel — every measurement is a seeded run at a (scenario, FPR,
// seed) point — so the engine models exactly that: a Job names a point,
// a worker pool sized to runtime.GOMAXPROCS executes points, and an
// in-memory cache keyed by the point's store key guarantees repeated
// campaigns (an MRF search followed by a Table-1 estimate pass,
// collision-rate curves, ablations) never re-simulate a point the
// process has already run. Runs are deterministic in (spec
// fingerprint, FPR, seed, sim.Version), which is what makes the cache
// sound.
//
// With a store attached, an outcome implies the point is on disk: the
// async archiver finishes a fresh plain run only after its Put returns,
// so every Run, RunJob, RunBatch(Func) or Trace that returns a fresh
// point — and every line a store-backed server streams — names a point
// the store already holds. The archiver then answers with the entry's
// run summary, exactly what a disk hit returns, and hands the run's row
// storage back for the next run: a store engine holds no rows beyond
// the runs in flight, and Trace reads them from the store.
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
// simulation of the scenario at the job's rate, recorded at the level
// the engine resolved for the job, into the row storage the engine
// recycles for it. Configure may still override cfg.Record.
func DefaultRunner(j Job) (*sim.Result, error) {
	cfg := j.Scenario.Build(j.FPR, j.Seed)
	cfg.Record = j.record
	if j.Configure != nil {
		j.Configure(&cfg)
	}
	return sim.RunInto(cfg, j.rows)
}

// Options configures an Engine.
type Options struct {
	// Workers is the scheduler's pool size. 0 defaults to
	// runtime.GOMAXPROCS(0): simulations are CPU-bound.
	Workers int
	// Runner executes jobs; nil defaults to DefaultRunner.
	Runner Runner
	// Store attaches a persistent cache tier: plain jobs (no Configure)
	// missing the in-memory cache are looked up in the store manifest
	// before simulating, and every fresh successful plain run is
	// archived back before its outcome is delivered, so an outcome
	// implies the point is on disk. Either way a plain job answers with
	// the entry's run summary (store.Entry.Result): no rows, which
	// Trace reads from the archive on demand. The memory tier holds the
	// same summaries, and a fresh run's row storage is reused by the
	// next one. A run whose archive fails answers with its full result,
	// rows included. Store errors never fail a run: they are counted in
	// Stats.StoreErrors. nil disables the tier.
	Store *store.Store
	// Record is the trace recording level the engine runs its jobs at.
	// The zero value is trace.LevelFull. Engines whose consumers only
	// read summaries — the campaign server's NDJSON stream, MRF/rate
	// CLIs, corpus sweeps — set LevelSummary and skip per-step row
	// materialization, the dominant allocation of a run. A scenario
	// whose spec declares a lesser level keeps it (a run records the
	// lesser of policy and spec). Store-recorded runs
	// always stay LevelFull regardless: a persistable job on a
	// store-attached engine must produce an archivable trace (the
	// persistent tier refuses anything less), though it answers with
	// the archived summary, not the rows. The level is an engine
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
	if o.Runner == nil {
		o.Runner = DefaultRunner
	}
	return o
}

// cacheSize bounds the memory tier: past it, the oldest completed
// results are evicted first.
const cacheSize = 2048

// Job is one schedulable run: a plain (scenario, FPR, seed) point, or
// that point specialized by a configuration hook.
type Job struct {
	Scenario scenario.Scenario
	FPR      float64
	Seed     int64
	// Configure mutates the built simulator configuration before the
	// run; only the default runner applies it. A hooked job always
	// executes and never touches the memory tier or the store: the
	// point's key cannot see the hook, and a hook that captures state
	// the caller reads back (controller alarm counts) needs the run.
	Configure func(*sim.Config)
	// record is the level the run records at, resolved by the engine
	// before the job reaches the Runner.
	record trace.Level
	// rows is the recycled row storage DefaultRunner records into: set
	// by the worker on a run whose rows the archiver hands back, nil
	// (the simulator allocates) otherwise.
	rows *trace.RowBuffer
}

// key is the job's point identity in both tiers: the store key, so
// the memory cache, the manifest and the fabric ring name a point the
// same way, by spec content rather than by name.
func (j Job) key() store.Key {
	return store.KeyForScenario(j.Scenario, j.FPR, j.Seed)
}

// persistable reports whether the job's result may be served from
// the memory tier or the store, and archived: only plain (scenario,
// FPR, seed) points qualify — Configure hooks change the run in ways
// the key cannot see.
func (j Job) persistable() bool {
	return j.Configure == nil
}

// Source says where a job's result came from.
type Source int

// Result sources, in increasing cheapness.
const (
	// SourceFresh — the simulation actually ran. With a store attached
	// the result is the archived summary, as for SourceDisk.
	SourceFresh Source = iota
	// SourceMemory — served from the in-memory cache, or joined an
	// execution another caller already had in flight; on a store
	// engine, a summary.
	SourceMemory
	// SourceDisk — the persistent store's manifest summary; no
	// simulation and no rows (read them through Engine.Trace).
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

// Outcome pairs a job with its result. A plain job on a store-attached
// engine answers with a run summary whatever its source (Result.Trace
// nil, Result.ArchivedRows set); Engine.Trace reads its rows.
type Outcome struct {
	Job    Job
	Result *sim.Result
	Source Source // fresh simulation, memory cache, or persistent store
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
	StoreErrors int64 // archives and artifact reads that failed (runs unaffected)
	// ArchivePending gauges the async archiver's backlog: fresh results
	// handed to the background store writer but not yet on disk. Their
	// callers are still waiting: an outcome implies the point is on disk.
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
	cache  map[store.Key]*entry
	order  []store.Key // insertion order for FIFO eviction

	// arch is the bounded async archiver (nil without a store): workers
	// hand it fresh results and go back to simulating; it writes each to
	// the store, then finishes the task, so waiters unblock only once
	// the point is on disk.
	arch *archiver
	// free is the store engine's row-storage free list: the archiver
	// returns an archived run's buffer to it and workers record into
	// buffers taken from it.
	free chan *trace.RowBuffer

	executed  atomic.Int64
	cacheHits atomic.Int64
	diskHits  atomic.Int64
	archived  atomic.Int64
	failures  atomic.Int64
	storeErrs atomic.Int64
}

// New builds an engine. Workers are started lazily on first submission.
func New(opts Options) *Engine {
	e := &Engine{opts: opts.withDefaults(), cache: make(map[store.Key]*entry)}
	e.cond = sync.NewCond(&e.mu)
	if e.opts.Store != nil {
		// The archiver's backlog bound caps the row buffers a store
		// engine keeps live: a run holds its rows from the moment a
		// worker starts it until its Put returns them, so at most
		// bound queued + 1 being written + Workers being recorded
		// exist, and the free list never needs to hold more. A few per
		// worker let runs that finish together queue behind a slow Put
		// without stalling their workers.
		bound := max(4*e.opts.Workers, 16)
		e.arch = newArchiver(e, bound)
		e.free = make(chan *trace.RowBuffer, bound+1+e.opts.Workers)
	}
	return e
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
		Executed:    e.executed.Load(),
		CacheHits:   e.cacheHits.Load(),
		DiskHits:    e.diskHits.Load(),
		Archived:    e.archived.Load(),
		Failures:    e.failures.Load(),
		StoreErrors: e.storeErrs.Load(),

		ArchivePending: e.arch.pending(),
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
// held is on disk and its task finished — and results that
// still-running workers produce afterwards are archived synchronously
// before their tasks finish. Cached results remain readable only
// through jobs already joined; use Close for short-lived engines
// (benchmarks, one-shot campaigns) so their workers don't outlive them.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.cond.Broadcast()
	if e.arch != nil {
		e.arch.close()
	}
}

func (e *Engine) execute(t *task) {
	if err := t.ctx.Err(); err != nil {
		e.finish(t, nil, err)
		return
	}
	if t.registered && e.arch != nil {
		t.job.rows = e.takeRows()
	}
	res, err := e.opts.Runner(t.job)
	if err != nil {
		e.failures.Add(1)
	}
	e.executed.Add(1)
	if err == nil && res != nil && e.arch != nil && t.job.persistable() {
		// Record hook: the archiver finishes the task once the point is
		// on disk, and the worker goes back to simulating.
		e.arch.enqueue(t, res)
		return
	}
	e.finish(t, res, err)
}

// archive writes a fresh successful plain run to the persistent store
// and returns the result its task publishes. A memory-tier run
// publishes a run summary and its row storage goes back on the free
// list: the entry's summary, exactly what a disk hit returns, or, when
// the store refused the run, the same summary built from the result,
// whose rows Trace re-simulates on demand. Trace's heal run, which is
// outside the tier, keeps its rows for its caller. Store failures are
// counted, never propagated: the simulation itself succeeded. Non-full
// results never reach the store: the engine runs persistable jobs at
// trace.LevelFull, and if an injected runner ignores that, store.Put's
// own level guard rejects the result and the rejection is counted
// here.
func (e *Engine) archive(t *task, res *sim.Result) *sim.Result {
	ent, created, err := e.opts.Store.Put(t.job.Scenario.Name, t.job.key(), res)
	if err != nil {
		e.storeErrs.Add(1)
	} else if created {
		e.archived.Add(1)
	}
	if !t.registered {
		return res
	}
	if err == nil {
		res = ent.Result()
	} else {
		sum := *res
		sum.Trace, sum.Level = nil, trace.LevelSummary
		if res.Trace != nil {
			sum.ArchivedRows = res.Trace.Len()
		}
		res = &sum
	}
	e.giveRows(t.job.rows)
	return res
}

// takeRows returns row storage for a run the archiver will recycle: a
// buffer off the free list, else a new one.
func (e *Engine) takeRows() *trace.RowBuffer {
	select {
	case b := <-e.free:
		return b
	default:
		return new(trace.RowBuffer)
	}
}

// giveRows puts an archived run's row storage back on the free list,
// or drops it when the list is full.
func (e *Engine) giveRows(b *trace.RowBuffer) {
	select {
	case e.free <- b:
	default:
	}
}

// lookup finds a plain job's manifest entry in the persistent store.
func (e *Engine) lookup(j Job) (store.Entry, bool) {
	if e.opts.Store == nil || !j.persistable() {
		return store.Entry{}, false
	}
	return e.opts.Store.Lookup(j.key())
}

// storeLookup answers a plain job from the persistent tier: a hit is
// the manifest entry's run summary, with no artifact read.
func (e *Engine) storeLookup(j Job) (*sim.Result, bool) {
	ent, ok := e.lookup(j)
	if !ok {
		return nil, false
	}
	e.diskHits.Add(1)
	return ent.Result(), true
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
	// The engine's level, unless the spec declares a lesser one.
	job.record = max(e.opts.Record, job.Scenario.Record)
	if !job.persistable() {
		// A hooked run always executes, outside both tiers.
		res, err := e.runUncached(ctx, job)
		return res, SourceFresh, err
	}
	if e.opts.Store != nil {
		job.record = trace.LevelFull // the archive needs every row
	}
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

// runUncached executes a job on the pool outside the cache and waits
// for its outcome, rows included: an unregistered run keeps them even
// when it is archived.
func (e *Engine) runUncached(ctx context.Context, job Job) (*sim.Result, error) {
	ent := &entry{done: make(chan struct{})}
	e.enqueue(&task{ctx: ctx, job: job, ent: ent})
	<-ent.done
	return ent.res, ent.err
}

// Trace returns the job's full recorded trace, the rows a summary does
// not carry. It runs the job as Run does, then takes the rows from the
// memory tier's result when it holds them (a store-less full-level
// engine), else from the archived artifact on the caller's goroutine.
// A missing or unreadable artifact counts one StoreErrors, and it and
// a point the store never took fall back to a fresh full-level run
// outside the memory tier, whose archive rewrites a missing object
// before the run returns its rows.
func (e *Engine) Trace(ctx context.Context, job Job) (*trace.Trace, error) {
	res, err := e.Run(ctx, job)
	if err != nil {
		return nil, err
	}
	if res.Level == trace.LevelFull {
		return res.Trace, nil
	}
	if ent, ok := e.lookup(job); ok {
		tr, err := e.opts.Store.Trace(ent)
		if err == nil {
			return tr, nil
		}
		e.storeErrs.Add(1)
	}
	job.record = trace.LevelFull
	res, err = e.runUncached(ctx, job)
	if err != nil {
		return nil, err
	}
	return res.Trace, nil
}

// evictLocked drops the oldest completed entries until the cache fits.
// In-flight entries are skipped: evicting one would detach waiters.
func (e *Engine) evictLocked() {
	for len(e.cache) > cacheSize {
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
	return Outcome{Job: job, Result: res, Source: src, Err: err}
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
