package engine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/world"
)

// TestArchiverOrderAndDrain: the background writer is strictly FIFO,
// so with sequential submissions the manifest (which preserves
// first-recorded order) must list entries in submission order, and
// once the last Run has returned the pending gauge reads zero.
func TestArchiverOrderAndDrain(t *testing.T) {
	st := openStore(t)
	fr := &tracedRunner{}
	e := New(Options{Workers: 1, Runner: fr.run, Store: st})
	const n = 32
	for i := int64(0); i < n; i++ {
		j := Job{Scenario: fakeScenario("fifo"), FPR: 5, Seed: i + 1}
		if _, err := e.Run(context.Background(), j); err != nil {
			t.Fatal(err)
		}
	}
	entries := st.Entries()
	if len(entries) != n {
		t.Fatalf("store holds %d entries, want %d", len(entries), n)
	}
	for i, en := range entries {
		if en.Key.Seed != int64(i+1) {
			t.Fatalf("write order broken at %d: got seed %d", i, en.Key.Seed)
		}
	}
	if s := e.Stats(); s.ArchivePending != 0 || s.Archived != n {
		t.Fatalf("stats after the last Run = %+v", s)
	}
}

// TestArchiverAsyncIntegration exercises the concurrent path: runs on
// four workers return only once their Put has landed, and
// ArchivePending reads zero after the last one.
func TestArchiverAsyncIntegration(t *testing.T) {
	st := openStore(t)
	fr := &tracedRunner{}
	e := New(Options{Workers: 4, Runner: fr.run, Store: st})
	jobs := gridJobs(fakeScenario("async"), []float64{1, 5, 30}, 4)
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j Job) {
			defer wg.Done()
			if _, err := e.Run(context.Background(), j); err != nil {
				t.Error(err)
			}
		}(j)
	}
	wg.Wait()
	if s := e.Stats(); s.Archived != int64(len(jobs)) || s.ArchivePending != 0 || s.StoreErrors != 0 {
		t.Fatalf("stats after the last Run = %+v", s)
	}
	if st.Len() != len(jobs) {
		t.Fatalf("store holds %d entries, want %d", st.Len(), len(jobs))
	}
}

// TestOutcomeImpliesArchived: on a store-attached engine, a fresh
// point is in the store by the time its outcome reaches the caller —
// inside RunBatchFunc's completion hook and right after a single Run
// returns. One worker and a fast runner keep the archiver behind the
// simulations, so an outcome delivered at enqueue time would miss.
func TestOutcomeImpliesArchived(t *testing.T) {
	st := openStore(t)
	fr := &tracedRunner{}
	e := New(Options{Workers: 1, Runner: fr.run, Store: st})
	defer e.Close()

	jobs := gridJobs(fakeScenario("durable"), []float64{1, 2, 5, 10, 30}, 8)
	_, err := e.RunBatchFunc(context.Background(), jobs, func(i int, o Outcome) {
		if o.Source != SourceFresh {
			t.Errorf("job %d answered from %v, want fresh", i, o.Source)
		}
		if _, ok := st.Lookup(o.Job.key()); !ok {
			t.Errorf("job %d streamed before its point was archived", i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, j := range gridJobs(fakeScenario("durable-run"), []float64{1, 2, 5, 10, 30}, 8) {
		if _, err := e.Run(context.Background(), j); err != nil {
			t.Fatal(err)
		}
		if _, ok := st.Lookup(j.key()); !ok {
			t.Fatalf("Run(fpr %g seed %d) returned before its point was archived", j.FPR, j.Seed)
		}
	}
}

// TestArchiverCallerRuns: a runner that returns at once outruns the
// single background writer, so the queue fills and the worker writes
// its own runs. The runs must still record into at most 2*Workers+1
// recycled row buffers (queue bound + the one the archiver writes +
// one per worker), answer with their stored summaries and all reach the
// manifest, and the pending gauge must read zero once the campaign has
// returned. CI runs it with -race -count=10.
func TestArchiverCallerRuns(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const rows = 400
			var mu sync.Mutex
			bufs := map[*trace.RowBuffer]bool{}
			runner := func(j Job) (*sim.Result, error) {
				mu.Lock()
				bufs[j.rows] = true
				mu.Unlock()
				tr := &trace.Trace{Meta: trace.Meta{Scenario: j.Scenario.Name, FPR: j.FPR, Seed: j.Seed, Dt: 0.01}}
				tr.Rows, _ = j.rows.Take(rows, 0)
				for i := range rows {
					tr.Rows = append(tr.Rows, trace.Row{
						Time: float64(i) * 0.01,
						Ego:  world.Agent{ID: world.EgoID, Speed: j.FPR + float64(i)},
					})
				}
				return &sim.Result{Trace: tr, MinBumperGap: float64(j.Seed)}, nil
			}
			st := openStore(t)
			e := New(Options{Workers: workers, Runner: runner, Store: st})
			defer e.Close()

			jobs := gridJobs(fakeScenario("caller-runs"), []float64{1, 2, 5, 10}, 16)
			br, err := e.RunBatch(context.Background(), jobs)
			if err != nil {
				t.Fatal(err)
			}
			if len(bufs) > 2*workers+1 || bufs[nil] {
				t.Errorf("runs recorded into %d row buffers (nil among them: %v), want at most %d",
					len(bufs), bufs[nil], 2*workers+1)
			}
			for i, o := range br.Outcomes {
				requireSummary(t, fmt.Sprintf("job %d", i), o.Result)
				ent, ok := st.Lookup(o.Job.key())
				if !ok {
					t.Fatalf("job %d is not in the manifest", i)
				}
				if !reflect.DeepEqual(o.Result, ent.Result()) || ent.Rows != rows {
					t.Errorf("job %d answered %+v, want its stored summary %+v", i, o.Result, ent.Result())
				}
			}
			if s := e.Stats(); s.ArchivePending != 0 || s.Archived != int64(len(jobs)) || s.StoreErrors != 0 {
				t.Errorf("stats after the campaign = %+v, want %d archived, none pending", s, len(jobs))
			}
		})
	}
}

// TestArchiverCloseFlushesAndFallsBackSync: Close drains the queue,
// and an enqueue after Close must still archive (synchronously) and
// finish its task rather than drop the result.
func TestArchiverCloseFlushesAndFallsBackSync(t *testing.T) {
	st := openStore(t)
	fr := &tracedRunner{}
	e := New(Options{Workers: 2, Runner: fr.run, Store: st})
	j := Job{Scenario: fakeScenario("close"), FPR: 5, Seed: 1}
	if _, err := e.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	e.arch.close()
	if st.Len() != 1 {
		t.Fatalf("close did not flush: store holds %d entries", st.Len())
	}

	// Post-close enqueue degrades to a synchronous archive.
	j2 := Job{Scenario: fakeScenario("close"), FPR: 5, Seed: 2}
	res, err := fr.run(j2)
	if err != nil {
		t.Fatal(err)
	}
	tk := &task{ctx: context.Background(), job: j2, ent: &entry{done: make(chan struct{})}}
	e.arch.enqueue(tk, res)
	if st.Len() != 2 {
		t.Fatalf("post-close enqueue lost the result: store holds %d entries", st.Len())
	}
	select {
	case <-tk.ent.done:
	default:
		t.Fatal("post-close enqueue did not finish its task")
	}
	if tk.ent.res != res || tk.ent.err != nil {
		t.Fatalf("post-close task finished with (%p, %v), want (%p, nil)", tk.ent.res, tk.ent.err, res)
	}

	// A post-close memory-tier task answers with the stored summary,
	// as the background writer's would.
	j3 := Job{Scenario: fakeScenario("close"), FPR: 5, Seed: 3}
	res3, err := fr.run(j3)
	if err != nil {
		t.Fatal(err)
	}
	tk3 := &task{ctx: context.Background(), job: j3, ent: &entry{done: make(chan struct{})}, registered: true}
	e.arch.enqueue(tk3, res3)
	<-tk3.ent.done
	requireSummary(t, "post-close memory-tier task", tk3.ent.res)
	if tr, err := e.Trace(context.Background(), j3); err != nil || !reflect.DeepEqual(tr, res3.Trace) {
		t.Fatalf("post-close memory-tier task: Trace = %v, want its archived rows", err)
	}
	if s := e.Stats(); s.Archived != 3 {
		t.Fatalf("stats = %+v, want 3 archived", s)
	}
}

// TestArchiverDropsNonResults: a runner that returns neither a result
// nor an error must not panic the archive path or queue anything.
func TestArchiverDropsNonResults(t *testing.T) {
	st := openStore(t)
	e := New(Options{Workers: 1, Store: st, Runner: func(Job) (*sim.Result, error) { return nil, nil }})
	defer e.Close()
	res, err := e.Run(context.Background(), Job{Scenario: fakeScenario("x"), FPR: 1, Seed: 1})
	if res != nil || err != nil {
		t.Fatalf("Run = (%v, %v), want (nil, nil)", res, err)
	}
	if st.Len() != 0 {
		t.Fatal("nil result was archived")
	}
	if p := e.Stats().ArchivePending; p != 0 {
		t.Fatalf("pending = %d after a nil result", p)
	}
}
