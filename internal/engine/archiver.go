package engine

import (
	"sync"

	"repro/internal/sim"
)

// archiver moves the persistent store's Put off the worker: a fresh
// run's task is enqueued (ordered, bounded) and the worker goes back to
// simulating, while one background goroutine writes each result and
// then finishes its task, so an outcome implies the point is on disk.
// Ordering is preserved (FIFO), memory is bounded (a full queue applies
// backpressure to the producing worker), and nothing is lost on
// shutdown: Engine.Close flushes the queue, and items enqueued after
// close are archived and finished synchronously by the caller.
type archiver struct {
	e *Engine

	mu    sync.Mutex
	cond  *sync.Cond
	queue []archiveItem
	bound int
	busy  bool // the background writer is mid-Put
	once  sync.Once
	done  bool // closed: no new queueing, callers archive synchronously
}

type archiveItem struct {
	t   *task
	res *sim.Result
}

func newArchiver(e *Engine, bound int) *archiver {
	a := &archiver{e: e, bound: bound}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// enqueue hands a fresh task to the background writer, blocking only
// when the queue is at its bound (memory backpressure). After close it
// archives and finishes the task on the calling goroutine, so a worker
// finishing a job mid-shutdown still persists it.
func (a *archiver) enqueue(t *task, res *sim.Result) {
	a.mu.Lock()
	for !a.done && len(a.queue) >= a.bound {
		a.cond.Wait()
	}
	if a.done {
		a.mu.Unlock()
		a.e.finish(t, a.e.archive(t, res), nil)
		return
	}
	a.queue = append(a.queue, archiveItem{t: t, res: res})
	a.once.Do(func() { go a.loop() })
	a.mu.Unlock()
	a.cond.Broadcast()
}

// loop is the single background writer: strictly FIFO, one Put and
// one finished task at a time, until the archiver is closed and empty.
func (a *archiver) loop() {
	for {
		a.mu.Lock()
		for len(a.queue) == 0 && !a.done {
			a.cond.Wait()
		}
		if len(a.queue) == 0 {
			a.mu.Unlock()
			a.cond.Broadcast()
			return
		}
		item := a.queue[0]
		a.queue = a.queue[1:]
		a.busy = true
		a.mu.Unlock()
		a.cond.Broadcast() // a producer may be waiting on the bound

		res := a.e.archive(item.t, item.res)

		// Finish under the lock that clears busy, so a caller whose
		// outcome has arrived reads the item off the pending gauge and
		// close returns only after every task is finished.
		a.mu.Lock()
		a.busy = false
		a.e.finish(item.t, res, nil)
		a.mu.Unlock()
		a.cond.Broadcast() // close waits for busy to clear
	}
}

// close flushes the queue and stops the background writer; later
// enqueues archive synchronously.
func (a *archiver) close() {
	a.mu.Lock()
	a.done = true
	a.cond.Broadcast()
	for len(a.queue) > 0 || a.busy {
		a.cond.Wait()
	}
	a.mu.Unlock()
}

// pending reports the queue depth including the item being written;
// zero on a nil archiver (an engine without a store).
func (a *archiver) pending() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := int64(len(a.queue))
	if a.busy {
		n++
	}
	return n
}
