package engine

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sim"
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
