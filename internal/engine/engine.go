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
// the runs in flight, and Trace reads them from the store. The
// archiver's queue holds one run per worker; a worker that finds it
// full writes its own run rather than wait, so at most 2*Workers+1 runs
// hold rows at any time.
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
	// ArchivePending gauges the fresh results not yet on disk: those
	// queued for or being written by the background store writer, and
	// those a worker that found the queue full is writing itself. Their
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
	// batch, when set, is the completion channel of the RunBatchFunc
	// call that owns the task; finish reports the outcome on it as the
	// job's batch index idx.
	batch chan<- completion
	idx   int
}

// completion is one batch job's outcome, named by its batch index: the
// caller fills in the job itself.
type completion struct {
	i   int
	res *sim.Result
	src Source
	err error
}

// completed names a finished cache entry in the eviction FIFO.
type completed struct {
	key store.Key
	ent *entry
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
	// evictable lists the cache's completed entries, oldest first: eviction
	// pops it and never sees an entry still in flight.
	evictable []completed
	// evictWork counts the entries eviction has examined.
	evictWork int

	// arch is the bounded async archiver (nil without a store): workers
	// hand it fresh results and go back to simulating, or write their own
	// when its queue is full; each result is written to the store before
	// its task finishes, so waiters unblock only once the point is on
	// disk.
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
		// bound queued + 1 being written by the archiver + Workers
		// being recorded or written by their own worker exist, and the
		// free list never needs to hold more. One slot per worker lets
		// each hand off a run and simulate the next while the archiver
		// writes; a worker that finds the queue full writes its own run
		// instead of waiting, so a deeper queue would only hold rows.
		bound := e.opts.Workers
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
// before their tasks finish. The row free list is emptied once the
// archiver has flushed, and rows archived later are dropped, so a
// closed engine holds no row storage. Cached results remain readable
// only through jobs already joined; use Close for short-lived engines
// (benchmarks, one-shot campaigns) so their workers don't outlive them.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.cond.Broadcast()
	if e.arch == nil {
		return
	}
	e.arch.close()
	for {
		select {
		case <-e.free:
		default:
			return
		}
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
// or drops it when the list is full or the engine is closed.
func (e *Engine) giveRows(b *trace.RowBuffer) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
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

// finish publishes the task's outcome, then reports it to the batch
// that owns the task, if any. Failures are never cached: cancellations
// and shutdown rejections mean the point was not actually measured, and
// run errors may be transient (the runner is injectable), so a later
// campaign must be able to schedule the point again. Only successful
// results are retained.
func (e *Engine) finish(t *task, res *sim.Result, err error) {
	t.ent.res, t.ent.err = res, err
	if t.registered {
		key := t.job.key()
		e.mu.Lock()
		if err == nil {
			e.completeLocked(key, t.ent)
		} else if e.cache[key] == t.ent {
			delete(e.cache, key)
		}
		e.mu.Unlock()
	}
	close(t.ent.done)
	if t.batch != nil {
		t.batch <- completion{i: t.idx, res: res, src: SourceFresh, err: err}
	}
}

// completeLocked queues a successfully completed cache entry for
// eviction and evicts down to the bound.
func (e *Engine) completeLocked(key store.Key, ent *entry) {
	e.evictable = append(e.evictable, completed{key: key, ent: ent})
	e.evictLocked()
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Run executes one job, serving it from the memory cache or the
// persistent store when possible. It blocks until the result is
// available or ctx is cancelled.
func (e *Engine) Run(ctx context.Context, job Job) (*sim.Result, error) {
	o := e.RunJob(ctx, job)
	return o.Result, o.Err
}

// submit starts a job without blocking. It answers a memory or disk hit
// at once (t and join nil). Otherwise it returns either the task it
// enqueued for the job — reported on batch as index i when batch is
// set, and finished at once with ErrClosed on a closed engine — or the
// entry of a run another caller already has in flight, to join.
func (e *Engine) submit(ctx context.Context, job Job, batch chan<- completion, i int) (o Outcome, t *task, join *entry) {
	e.startWorkers()
	o.Job = job
	// The engine's level, unless the spec declares a lesser one.
	job.record = max(e.opts.Record, job.Scenario.Record)
	if !job.persistable() {
		// A hooked run always executes, outside both tiers.
		t = &task{ctx: ctx, job: job, ent: &entry{done: make(chan struct{})}, batch: batch, idx: i}
		e.enqueue(t)
		return o, t, nil
	}
	if e.opts.Store != nil {
		job.record = trace.LevelFull // the archive needs every row
	}
	key := job.key()
	e.mu.Lock()
	if ent, ok := e.cache[key]; ok {
		// A failed run leaves the cache before its entry completes, so
		// a completed entry still cached holds a result.
		select {
		case <-ent.done:
			e.mu.Unlock()
			e.cacheHits.Add(1)
			o.Result, o.Source = ent.res, SourceMemory
			return o, nil, nil
		default:
			e.mu.Unlock()
			return o, nil, ent
		}
	}
	// Claim the point: we own the execution, later callers join it
	// through the entry.
	ent := &entry{done: make(chan struct{})}
	e.cache[key] = ent
	e.evictLocked()
	e.mu.Unlock()
	// Persistent tier: a disk hit fills the claimed slot without
	// simulating; joiners see a plain memory hit.
	if res, hit := e.storeLookup(job); hit {
		ent.res = res
		e.mu.Lock()
		e.completeLocked(key, ent)
		e.mu.Unlock()
		close(ent.done)
		o.Result, o.Source = res, SourceDisk
		return o, nil, nil
	}
	t = &task{ctx: ctx, job: job, ent: ent, registered: true, batch: batch, idx: i}
	e.enqueue(t)
	return o, t, nil
}

// wait completes what submit started. An owned task is waited for
// unconditionally: the worker finishes every task — with ctx's error
// when cancelled before starting — so jobs that did start always report
// their real outcome, never a spurious cancellation. A joined entry
// answers as a memory hit unless its owner was cancelled before the
// point ran; then the job is submitted again.
func (e *Engine) wait(ctx context.Context, o Outcome, t *task, join *entry) Outcome {
	for {
		if t != nil {
			<-t.ent.done
			o.Result, o.Source, o.Err = t.ent.res, SourceFresh, t.ent.err
			return o
		}
		if join == nil {
			return o
		}
		select {
		case <-join.done:
			if !isCancellation(join.err) {
				e.cacheHits.Add(1)
				o.Result, o.Source, o.Err = join.res, SourceMemory, join.err
				return o
			}
		case <-ctx.Done():
			o.Source, o.Err = SourceFresh, ctx.Err()
			return o
		}
		o, t, join = e.submit(ctx, o.Job, nil, 0)
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
// In-flight entries are never queued for eviction (evicting one would
// detach its waiters); while they alone fill the cache, it overshoots.
func (e *Engine) evictLocked() {
	for len(e.cache) > cacheSize && len(e.evictable) > 0 {
		c := e.evictable[0]
		e.evictable[0] = completed{}
		e.evictable = e.evictable[1:]
		e.evictWork++
		if e.cache[c.key] == c.ent {
			delete(e.cache, c.key)
		}
	}
}

// RunJob executes one job and reports its full outcome, including the
// tier that answered it (fresh simulation, memory cache, or persistent
// store). Run is the error-pair convenience; RunJob is for callers —
// the campaign server, stats-printing CLIs — that surface the source.
func (e *Engine) RunJob(ctx context.Context, job Job) Outcome {
	o, t, join := e.submit(ctx, job, nil, 0)
	return e.wait(ctx, o, t, join)
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
// invoked once per job, on the calling goroutine, as soon as that job's
// outcome is known — while the rest of the campaign is still running.
// Every job is submitted first: memory and disk hits are answered (and
// fn called) at once without queueing, and misses are queued. fn then
// sees the rest in completion order. Calls to fn are thus serialized,
// so fn may write to a shared sink (the campaign server streams one
// NDJSON line per call) without its own locking; i is the job's
// submission index. Only a job that joins another caller's in-flight
// run costs a goroutine. The returned BatchResult still carries every
// outcome in submission order.
func (e *Engine) RunBatchFunc(ctx context.Context, jobs []Job, fn func(i int, o Outcome)) (*BatchResult, error) {
	startAt := time.Now()
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()

	outcomes := make([]Outcome, len(jobs))
	deliver := func(i int, o Outcome) {
		outcomes[i] = o
		if o.Err != nil && !isCancellation(o.Err) {
			cancel()
		}
		if fn != nil {
			fn(i, o)
		}
	}

	// One send per job at most, so neither a worker finishing a task
	// nor a joiner ever blocks on it.
	done := make(chan completion, len(jobs))
	waiting := 0
	for i, j := range jobs {
		o, t, join := e.submit(bctx, j, done, i)
		switch {
		case t != nil:
			waiting++
		case join != nil:
			waiting++
			go func() {
				o := e.wait(bctx, o, nil, join)
				done <- completion{i: i, res: o.Result, src: o.Source, err: o.Err}
			}()
		default:
			deliver(i, o)
		}
	}
	for ; waiting > 0; waiting-- {
		c := <-done
		deliver(c.i, Outcome{Job: jobs[c.i], Result: c.res, Source: c.src, Err: c.err})
	}

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
