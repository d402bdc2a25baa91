package engine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// trafficScenario is a real closed-loop scenario of d seconds with n
// cars cruising ahead of the ego, so its rows carry actor states.
func trafficScenario(name string, d float64, n int) scenario.Scenario {
	sp := scenario.Spec{
		Name:        name,
		EgoSpeedMPH: 30,
		Road:        scenario.RoadDef{Lanes: 2, Length: 2000},
		Duration:    d,
	}
	for i := range n {
		sp.Actors = append(sp.Actors, scenario.ActorDef{
			ID:    fmt.Sprintf("car%d", i),
			Lane:  i % 2,
			S:     scenario.C(60 + 30*float64(i)),
			Speed: scenario.C(0.9),
		})
	}
	return sp.Scenario()
}

// TestStoreEngineRecyclesRowsAcrossRuns runs A on a one-worker store
// engine, whose archive hands A's row storage back, then runs B into
// that storage, then a longer C that outgrows it. Every run must record
// into the one recycled buffer, answer with its stored summary, and
// archive the rows a store-less run records — A's included, read after
// B overwrote its storage.
func TestStoreEngineRecyclesRowsAcrossRuns(t *testing.T) {
	ctx := context.Background()
	var mu sync.Mutex
	var bufs []*trace.RowBuffer
	runner := func(j Job) (*sim.Result, error) {
		mu.Lock()
		bufs = append(bufs, j.rows)
		mu.Unlock()
		return DefaultRunner(j)
	}
	e := New(Options{Workers: 1, Runner: runner, Store: openStore(t)})
	defer e.Close()

	jobs := []Job{
		{Scenario: trafficScenario("recycle-a", 8, 2), FPR: 10, Seed: 1},
		{Scenario: trafficScenario("recycle-b", 5, 1), FPR: 30, Seed: 2},
		{Scenario: trafficScenario("recycle-c", 12, 2), FPR: 10, Seed: 3},
	}
	for _, j := range jobs {
		res, err := e.Run(ctx, j)
		if err != nil {
			t.Fatal(err)
		}
		requireSummary(t, j.Scenario.Name, res)
	}
	if len(bufs) != len(jobs) || bufs[0] == nil || bufs[1] != bufs[0] || bufs[2] != bufs[0] {
		t.Fatalf("runs recorded into buffers %p, want one recycled buffer", bufs)
	}
	for _, j := range jobs {
		tr, err := e.Trace(ctx, j)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr, freshTrace(t, nil, j)) {
			t.Errorf("%s: archived rows differ from a store-less run's", j.Scenario.Name)
		}
	}
	if s := e.Stats(); s.Executed != int64(len(jobs)) || s.StoreErrors != 0 {
		t.Errorf("engine stats = %+v, want %d runs and no store errors", s, len(jobs))
	}
}

// TestConcurrentRecycle races callers over a four-worker store engine
// (CI runs it with -race -count=10): runs of mixed shapes reuse one
// another's row storage while other callers read rows back through
// Trace. Every answer must be the stored summary of a store-less run,
// and every Trace that run's rows.
func TestConcurrentRecycle(t *testing.T) {
	ctx := context.Background()
	var jobs []Job
	for i := range 6 {
		sc := trafficScenario(fmt.Sprintf("race-%d", i), float64(2+i%3), i%3)
		jobs = append(jobs, gridJobs(sc, []float64{10, 30}, 2)...)
	}
	ref := New(Options{Workers: 4})
	defer ref.Close()
	want, err := ref.RunBatch(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}

	e := New(Options{Workers: 4, Store: openStore(t)})
	defer e.Close()
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Run(ctx, j)
			if err != nil {
				t.Error(err)
				return
			}
			full := want.Outcomes[i].Result
			if res.Trace != nil || !reflect.DeepEqual(summaryOf(res), summaryOf(full)) {
				t.Errorf("job %d: answer is not the store-less run's summary", i)
			}
			tr, err := e.Trace(ctx, j)
			if err != nil || !reflect.DeepEqual(tr, full.Trace) {
				t.Errorf("job %d: Trace = %v, want the store-less run's rows", i, err)
			}
		}()
	}
	wg.Wait()
	if s := e.Stats(); s.Executed != int64(len(jobs)) || s.Archived != int64(len(jobs)) || s.StoreErrors != 0 {
		t.Errorf("engine stats = %+v, want %d runs archived and no store errors", s, len(jobs))
	}
}

// TestClosedStoreEngineHoldsNoRows: Close empties the row free list once
// the archiver has flushed, and a run a worker finishes after Close is
// archived and drops its rows instead of handing them back.
func TestClosedStoreEngineHoldsNoRows(t *testing.T) {
	ctx := context.Background()
	sc := trafficScenario("closed", 2, 1)
	late := Job{Scenario: sc, FPR: 10, Seed: 99}
	entered, release := make(chan struct{}), make(chan struct{})
	runner := func(j Job) (*sim.Result, error) {
		if j.Seed == late.Seed {
			close(entered)
			<-release
		}
		return DefaultRunner(j)
	}
	st := openStore(t)
	e := New(Options{Workers: 2, Runner: runner, Store: st})
	if _, err := e.RunBatch(ctx, gridJobs(sc, []float64{10, 30}, 3)); err != nil {
		t.Fatal(err)
	}
	if len(e.free) == 0 {
		t.Fatal("no row storage on the free list before Close: the check could not fail")
	}
	lateErr := make(chan error, 1)
	go func() {
		_, err := e.Run(ctx, late)
		lateErr <- err
	}()
	<-entered
	e.Close()
	if n := len(e.free); n != 0 {
		t.Errorf("closed engine holds %d row buffers, want 0", n)
	}
	close(release)
	if err := <-lateErr; err != nil {
		t.Fatal(err)
	}
	if n := len(e.free); n != 0 {
		t.Errorf("a run archived after Close left %d row buffers, want 0", n)
	}
	if _, ok := st.Lookup(late.key()); !ok {
		t.Error("the run finished after Close was not archived")
	}
}
