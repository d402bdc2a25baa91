package engine

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/world"
)

// tracedRunner fabricates deterministic results with real traces, so
// they survive the store round-trip.
type tracedRunner struct {
	calls atomic.Int64
}

func (f *tracedRunner) run(j Job) (*sim.Result, error) {
	f.calls.Add(1)
	tr := &trace.Trace{Meta: trace.Meta{
		Scenario: j.Scenario.Name, FPR: j.FPR, Seed: j.Seed, Dt: 0.01,
		Cameras: []string{"front120"},
	}}
	for i := 0; i < 5; i++ {
		tr.Rows = append(tr.Rows, trace.Row{
			Time: float64(i) * 0.01,
			Ego: world.Agent{
				ID: world.EgoID, Pose: geom.Pose{Pos: geom.V(float64(i), 0)},
				Speed: j.FPR, Length: 4.6, Width: 1.9,
			},
			Rates: map[string]float64{"front120": j.FPR},
		})
	}
	return &sim.Result{
		Trace:           tr,
		FramesProcessed: map[string]int{"front120": int(j.Seed)},
		MinBumperGap:    j.FPR + float64(j.Seed),
	}, nil
}

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestPersistentTierWarmStart replays a recorded campaign on a fresh
// engine: every point must load from disk (then memory), simulating
// nothing, with results deep-equal to the fresh pass.
func TestPersistentTierWarmStart(t *testing.T) {
	st := openStore(t)
	jobs := gridJobs(fakeScenario("persist"), []float64{1, 5, 30}, 3)

	frA := &tracedRunner{}
	a := New(Options{Workers: 4, Runner: frA.run, Store: st})
	cold, err := a.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Executed != len(jobs) || cold.Stats.DiskHits != 0 {
		t.Fatalf("cold stats = %+v", cold.Stats)
	}
	if s := a.Stats(); s.Archived != int64(len(jobs)) || s.StoreErrors != 0 {
		t.Fatalf("cold engine stats = %+v", s)
	}
	if st.Len() != len(jobs) {
		t.Fatalf("store holds %d entries, want %d", st.Len(), len(jobs))
	}

	frB := &tracedRunner{}
	b := New(Options{Workers: 4, Runner: frB.run, Store: st})
	warm, err := b.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Executed != 0 || warm.Stats.DiskHits != len(jobs) || warm.Stats.Failures != 0 {
		t.Fatalf("warm stats = %+v (want all disk hits)", warm.Stats)
	}
	if frB.calls.Load() != 0 {
		t.Fatalf("warm engine simulated %d times", frB.calls.Load())
	}
	for i := range jobs {
		if !reflect.DeepEqual(warm.Outcomes[i].Result, cold.Outcomes[i].Result) {
			t.Fatalf("outcome %d differs between fresh and disk-loaded", i)
		}
		if warm.Outcomes[i].Source != SourceDisk || !warm.Outcomes[i].Cached {
			t.Fatalf("outcome %d source = %v", i, warm.Outcomes[i].Source)
		}
	}

	// Third pass on the warm engine: the disk-filled slots now serve
	// from memory.
	hot, err := b.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Stats.CacheHits != len(jobs) || hot.Stats.DiskHits != 0 || hot.Stats.Executed != 0 {
		t.Fatalf("hot stats = %+v (want all memory hits)", hot.Stats)
	}
}

// TestPersistentTierEquivalenceRealSim pins the store round-trip
// against the real simulator: a disk-loaded result must deep-equal the
// fresh simulation of the same point.
func TestPersistentTierEquivalenceRealSim(t *testing.T) {
	if testing.Short() {
		t.Skip("real closed-loop simulation")
	}
	st := openStore(t)
	sc, ok := scenario.Lookup(scenario.CutOut)
	if !ok {
		t.Fatal("cut-out not registered")
	}
	job := Job{Scenario: sc, FPR: 30, Seed: 1}

	a := New(Options{Workers: 2, Store: st})
	fresh, err := a.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	a.Drain() // single Run archives asynchronously; flush before reading stats
	if s := a.Stats(); s.Executed != 1 || s.Archived != 1 || s.StoreErrors != 0 {
		t.Fatalf("fresh engine stats = %+v", s)
	}

	b := New(Options{Workers: 2, Store: st})
	loaded, err := b.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if s := b.Stats(); s.Executed != 0 || s.DiskHits != 1 {
		t.Fatalf("warm engine stats = %+v", s)
	}
	if !reflect.DeepEqual(fresh, loaded) {
		t.Error("disk-loaded result differs from fresh simulation")
	}
}

// TestPersistentTierSkipsNonPersistableJobs: configured runs and
// NoCache jobs must never be served from or archived to the store —
// their store key cannot see what distinguishes them.
func TestPersistentTierSkipsNonPersistableJobs(t *testing.T) {
	st := openStore(t)
	fr := &tracedRunner{}
	e := New(Options{Workers: 2, Runner: fr.run, Store: st})

	plain := Job{Scenario: fakeScenario("np"), FPR: 5, Seed: 1}
	configured := Job{Scenario: fakeScenario("np"), FPR: 5, Seed: 1, Configure: func(*sim.Config) {}}
	nocache := Job{Scenario: fakeScenario("np"), FPR: 5, Seed: 1, NoCache: true}

	for _, j := range []Job{plain, configured, nocache} {
		if _, err := e.Run(context.Background(), j); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	if st.Len() != 1 {
		t.Fatalf("store holds %d entries, want only the plain run", st.Len())
	}

	// A fresh engine must execute the configured and NoCache jobs again
	// even though the plain point is on disk.
	fr2 := &tracedRunner{}
	e2 := New(Options{Workers: 2, Runner: fr2.run, Store: st})
	for _, j := range []Job{plain, configured, nocache} {
		if _, err := e2.Run(context.Background(), j); err != nil {
			t.Fatal(err)
		}
	}
	if got := fr2.calls.Load(); got != 2 {
		t.Fatalf("fresh engine ran %d jobs, want 2 (configured + nocache)", got)
	}
	if s := e2.Stats(); s.DiskHits != 1 {
		t.Fatalf("fresh engine stats = %+v, want 1 disk hit", s)
	}
}

// TestPersistentTierConcurrentEngines races two engines over one store
// (run with -race): concurrent recorders and disk readers must agree
// on every result.
func TestPersistentTierConcurrentEngines(t *testing.T) {
	st := openStore(t)
	jobs := gridJobs(fakeScenario("race"), []float64{1, 2, 5, 15, 30}, 4)

	var wg sync.WaitGroup
	results := make([]*BatchResult, 3)
	for i := range results {
		fr := &tracedRunner{}
		e := New(Options{Workers: 4, Runner: fr.run, Store: st})
		wg.Add(1)
		go func(i int, e *Engine) {
			defer wg.Done()
			br, err := e.RunBatch(context.Background(), jobs)
			if err != nil {
				t.Errorf("engine %d: %v", i, err)
				return
			}
			results[i] = br
		}(i, e)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if st.Len() != len(jobs) {
		t.Errorf("store holds %d entries, want %d", st.Len(), len(jobs))
	}
	for i := 1; i < len(results); i++ {
		for k := range jobs {
			if !reflect.DeepEqual(results[i].Outcomes[k].Result, results[0].Outcomes[k].Result) {
				t.Fatalf("engine %d outcome %d differs", i, k)
			}
		}
	}
}

// TestArchiveRenameFailureIsCounted: a store whose object rename fails
// costs the run nothing. The point's address comes from a sibling store
// (runs are deterministic); a regular file planted at objects/<aa> in
// the target store makes the rename fail once the object is fully
// written. The engine counts one store error, archives nothing, and
// returns the result a store-less engine returns.
func TestArchiveRenameFailureIsCounted(t *testing.T) {
	sc, ok := scenario.Lookup(scenario.CutOut)
	if !ok {
		t.Fatal("cut-out not registered")
	}
	job := Job{Scenario: sc, FPR: 30, Seed: 1}
	ctx := context.Background()

	sibling := openStore(t)
	rec := New(Options{Workers: 1, Store: sibling})
	defer rec.Close()
	if _, err := rec.Run(ctx, job); err != nil {
		t.Fatal(err)
	}
	rec.Drain()
	ent, ok := sibling.Lookup(store.KeyForScenario(sc, job.FPR, job.Seed))
	if !ok {
		t.Fatal("sibling store did not archive the point")
	}

	st := openStore(t)
	planted := filepath.Join(st.Dir(), "objects", ent.Artifact[:2])
	if err := os.WriteFile(planted, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 1, Store: st})
	defer e.Close()
	got, err := e.Run(ctx, job)
	if err != nil {
		t.Fatalf("run failed with the store: %v", err)
	}
	e.Drain()
	if s := e.Stats(); s.StoreErrors != 1 || s.Archived != 0 {
		t.Errorf("engine stats = %+v, want 1 store error and nothing archived", s)
	}
	if st.Len() != 0 {
		t.Errorf("store holds %d entries after a failed archive, want 0", st.Len())
	}

	plain := New(Options{Workers: 1})
	defer plain.Close()
	want, err := plain.Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("result with a failing store differs from a store-less run")
	}
}
