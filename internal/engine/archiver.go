package engine

import (
	"sync"

	"repro/internal/sim"
)

// archiver moves the persistent store's Put off the worker: a fresh
// run's task is queued and the worker goes back to simulating, while
// one background goroutine writes each queued result and then finishes
// its task, so an outcome implies the point is on disk. The queue holds
// at most bound results, and a worker never waits on it: one that finds
// the queue full, or the archiver closed, writes and finishes its own
// task (caller-runs). So memory is bounded by construction, a worker
// writes only when it would otherwise sit idle, and results may land
// out of submission order. Nothing is lost on shutdown: Engine.Close
// flushes the queue.
type archiver struct {
	e *Engine

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []archiveItem
	bound  int
	busy   bool // the background writer is mid-Put
	inline int  // results their own workers are writing
	once   sync.Once
	done   bool // closed: no new queueing, callers archive themselves
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

// enqueue hands a fresh task to the background writer, or, when the
// queue is at its bound or the archiver is closed, archives and
// finishes the task on the calling goroutine. Either way it never
// waits for the writer.
func (a *archiver) enqueue(t *task, res *sim.Result) {
	a.mu.Lock()
	if a.done || len(a.queue) >= a.bound {
		a.inline++
		a.mu.Unlock()
		res = a.e.archive(t, res)
		// Off the pending gauge before the outcome is published.
		a.mu.Lock()
		a.inline--
		a.mu.Unlock()
		a.e.finish(t, res, nil)
		return
	}
	a.queue = append(a.queue, archiveItem{t: t, res: res})
	a.once.Do(func() { go a.loop() })
	a.mu.Unlock()
	a.cond.Broadcast()
}

// loop is the single background writer: one Put and one finished task
// at a time, in queue order, until the archiver is closed and empty.
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
// enqueues archive on their caller.
func (a *archiver) close() {
	a.mu.Lock()
	a.done = true
	a.cond.Broadcast()
	for len(a.queue) > 0 || a.busy {
		a.cond.Wait()
	}
	a.mu.Unlock()
}

// pending reports the fresh results not yet on disk: the queue depth,
// the item the background writer is writing, and the results workers
// are writing themselves; zero on a nil archiver (an engine without a
// store).
func (a *archiver) pending() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := int64(len(a.queue) + a.inline)
	if a.busy {
		n++
	}
	return n
}
