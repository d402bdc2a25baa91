package engine

import (
	"context"
	"fmt"
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

// summaryOf is the run summary every tier must agree on: collision,
// frames processed, min gap, ego stop and the row count, whether the
// rows are loaded or not.
func summaryOf(res *sim.Result) sim.Result {
	s := *res
	if s.Trace != nil {
		s.ArchivedRows = s.Trace.Len()
	}
	s.Trace, s.Level = nil, 0
	return s
}

// freshTrace is the job's rows as a store-less full-level engine
// records them: the reference every store read must reproduce. A nil
// runner is DefaultRunner.
func freshTrace(t *testing.T, runner Runner, j Job) *trace.Trace {
	t.Helper()
	e := New(Options{Workers: 1, Runner: runner})
	defer e.Close()
	tr, err := e.Trace(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil || tr.Len() == 0 {
		t.Fatalf("store-less reference run of %+v recorded no rows", j.key())
	}
	return tr
}

// requireSummary fails unless res is a stored point's answer: the run
// summary with its row count and no rows, as a disk hit returns.
func requireSummary(t *testing.T, what string, res *sim.Result) {
	t.Helper()
	if res == nil || res.Trace != nil || res.ArchivedRows == 0 || res.Level != trace.LevelSummary {
		t.Fatalf("%s: want a stored summary (no trace, rows counted), got %+v", what, res)
	}
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
// engine: every point must answer from disk (then memory), simulating
// nothing, with the fresh pass's summaries, and Trace must read back
// the fresh pass's rows. The fresh pass itself answers with the same
// stored summaries, and its rows come back through Trace too.
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
	for i, o := range cold.Outcomes {
		requireSummary(t, fmt.Sprintf("cold outcome %d", i), o.Result)
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
	for i, j := range jobs {
		if !reflect.DeepEqual(summaryOf(warm.Outcomes[i].Result), summaryOf(cold.Outcomes[i].Result)) {
			t.Fatalf("outcome %d summary differs between fresh and disk", i)
		}
		if warm.Outcomes[i].Source != SourceDisk {
			t.Fatalf("outcome %d source = %v", i, warm.Outcomes[i].Source)
		}
		want := freshTrace(t, (&tracedRunner{}).run, j)
		tr, err := b.Trace(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr, want) {
			t.Fatalf("outcome %d: archived trace differs from the fresh one", i)
		}
		if tr, err := a.Trace(context.Background(), j); err != nil || !reflect.DeepEqual(tr, want) {
			t.Fatalf("outcome %d: the recording engine's Trace = %v, want the fresh rows", i, err)
		}
	}
	if frA.calls.Load() != int64(len(jobs)) || frB.calls.Load() != 0 || a.Stats().StoreErrors != 0 || b.Stats().StoreErrors != 0 {
		t.Fatalf("reading rows ran %d+%d simulations, stats %+v, %+v", frA.calls.Load()-int64(len(jobs)), frB.calls.Load(), a.Stats(), b.Stats())
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
// against the real simulator: a fresh and a disk-tier result must both
// carry a store-less simulation's summary, and Trace its rows.
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
	if s := a.Stats(); s.Executed != 1 || s.Archived != 1 || s.StoreErrors != 0 {
		t.Fatalf("fresh engine stats = %+v", s)
	}
	requireSummary(t, "fresh result", fresh)
	ref := New(Options{Workers: 1})
	defer ref.Close()
	full, err := ref.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(summaryOf(fresh), summaryOf(full)) {
		t.Error("fresh store summary differs from a store-less simulation")
	}

	b := New(Options{Workers: 2, Store: st})
	loaded, err := b.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if s := b.Stats(); s.Executed != 0 || s.DiskHits != 1 {
		t.Fatalf("warm engine stats = %+v", s)
	}
	if !reflect.DeepEqual(summaryOf(fresh), summaryOf(loaded)) {
		t.Error("disk-tier summary differs from fresh simulation")
	}
	tr, err := b.Trace(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, full.Trace) {
		t.Error("archived trace differs from fresh simulation")
	}
	if s := b.Stats(); s.Executed != 0 || s.StoreErrors != 0 {
		t.Fatalf("warm engine stats after Trace = %+v", s)
	}
}

// TestTraceHealsMissingObjects: a store whose objects/ directory is
// gone still answers a summary campaign from its manifest alone — every
// point a disk hit, no store error, no run. The loss surfaces only when
// rows are read: Trace counts one store error, re-simulates the point
// at full level, returns the rows a store-less run of the point
// records, and its archive rewrites the object, so the next Trace
// reads it from disk.
func TestTraceHealsMissingObjects(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	jobs := gridJobs(specScenario("heal"), []float64{10, 30}, 2)
	rst, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := New(Options{Workers: 2, Store: rst})
	cold, err := rec.RunBatch(ctx, jobs)
	rec.Close()
	rst.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "objects")); err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e := New(Options{Workers: 2, Store: st})
	defer e.Close()
	warm, err := e.RunBatch(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.DiskHits != len(jobs) {
		t.Fatalf("warm campaign stats = %+v, want %d disk hits", warm.Stats, len(jobs))
	}
	if s := e.Stats(); s.StoreErrors != 0 || s.Executed != 0 {
		t.Fatalf("warm campaign engine stats = %+v, want 0 store errors and 0 runs", s)
	}
	for i := range jobs {
		if !reflect.DeepEqual(summaryOf(warm.Outcomes[i].Result), summaryOf(cold.Outcomes[i].Result)) {
			t.Fatalf("outcome %d summary differs from the cold run", i)
		}
	}

	// The first Trace heals the object; the second reads it from disk.
	want := freshTrace(t, nil, jobs[0])
	for pass := range 2 {
		tr, err := e.Trace(ctx, jobs[0])
		if err != nil {
			t.Fatal(err)
		}
		if tr == nil || tr.Len() == 0 {
			t.Fatalf("pass %d: Trace returned no rows", pass)
		}
		if !reflect.DeepEqual(tr, want) {
			t.Errorf("pass %d: trace differs from a store-less run's", pass)
		}
		if s := e.Stats(); s.StoreErrors != 1 || s.Executed != 1 {
			t.Errorf("pass %d: engine stats = %+v, want 1 store error and 1 run", pass, s)
		}
	}
}

// TestTraceRefusesTruncatedObject: a .zyt object cut short on disk
// is refused at trace load, since its size disagrees with its manifest
// entry. Trace counts one store error and returns the rows of a fresh
// run of the point, the rows a store-less run records. That run's
// archive heals the object, so a second engine reads it from disk.
func TestTraceRefusesTruncatedObject(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	jobs := gridJobs(specScenario("truncated"), []float64{10}, 1)
	rst, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := New(Options{Workers: 2, Store: rst})
	_, err = rec.RunBatch(ctx, jobs)
	rec.Close()
	rst.Close()
	if err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ents := st.Entries()
	if len(ents) != 1 {
		t.Fatalf("store holds %d entries, want 1", len(ents))
	}
	path := st.ObjectPath(ents[0].Artifact)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	e := New(Options{Workers: 2, Store: st})
	defer e.Close()
	tr, err := e.Trace(ctx, jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil || tr.Len() == 0 {
		t.Fatal("Trace returned no rows")
	}
	want := freshTrace(t, nil, jobs[0])
	if !reflect.DeepEqual(tr, want) {
		t.Error("trace differs from the fresh run's")
	}
	if s := e.Stats(); s.StoreErrors != 1 || s.Executed != 1 {
		t.Errorf("engine stats = %+v, want 1 store error and 1 run", s)
	}

	if fi, err := os.Stat(path); err != nil || fi.Size() != ents[0].Bytes {
		t.Fatalf("object after Trace: %v, want %d bytes", err, ents[0].Bytes)
	}
	healed := New(Options{Workers: 2, Store: st})
	defer healed.Close()
	tr, err = healed.Trace(ctx, jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, want) {
		t.Error("healed object's trace differs from the fresh run's")
	}
	if s := healed.Stats(); s.StoreErrors != 0 || s.Executed != 0 {
		t.Errorf("second engine stats = %+v, want 0 store errors and 0 runs", s)
	}
}

// TestPersistentTierSkipsNonPersistableJobs: configured runs must
// never be served from or archived to the store — their store key
// cannot see what distinguishes them.
func TestPersistentTierSkipsNonPersistableJobs(t *testing.T) {
	st := openStore(t)
	fr := &tracedRunner{}
	e := New(Options{Workers: 2, Runner: fr.run, Store: st})

	plain := Job{Scenario: fakeScenario("np"), FPR: 5, Seed: 1}
	configured := Job{Scenario: fakeScenario("np"), FPR: 5, Seed: 1, Configure: func(*sim.Config) {}}

	for _, j := range []Job{plain, configured} {
		if _, err := e.Run(context.Background(), j); err != nil {
			t.Fatal(err)
		}
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d entries, want only the plain run", st.Len())
	}

	// A fresh engine must execute the configured job again even though
	// the plain point is on disk.
	fr2 := &tracedRunner{}
	e2 := New(Options{Workers: 2, Runner: fr2.run, Store: st})
	for _, j := range []Job{plain, configured} {
		if _, err := e2.Run(context.Background(), j); err != nil {
			t.Fatal(err)
		}
	}
	if got := fr2.calls.Load(); got != 1 {
		t.Fatalf("fresh engine ran %d jobs, want 1 (the configured one)", got)
	}
	if s := e2.Stats(); s.DiskHits != 1 {
		t.Fatalf("fresh engine stats = %+v, want 1 disk hit", s)
	}
}

// TestPersistentTierConcurrentEngines races engines over one store
// (run with -race): concurrent recorders and disk readers must agree
// on every summary, and Trace must return every point's recorded rows
// while other engines are still archiving.
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
			for _, j := range jobs {
				tr, err := e.Trace(context.Background(), j)
				want, _ := (&tracedRunner{}).run(j)
				if err != nil || !reflect.DeepEqual(tr, want.Trace) {
					t.Errorf("engine %d: Trace(%+v) = %v, want the recorded rows", i, j.key(), err)
				}
			}
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
			if !reflect.DeepEqual(summaryOf(results[i].Outcomes[k].Result), summaryOf(results[0].Outcomes[k].Result)) {
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
// answers with the summary a successful archive publishes; Trace then
// re-simulates the rows a store-less engine returns.
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
	summary, err := rec.Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
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
	if s := e.Stats(); s.StoreErrors != 1 || s.Archived != 0 {
		t.Errorf("engine stats = %+v, want 1 store error and nothing archived", s)
	}
	if st.Len() != 0 {
		t.Errorf("store holds %d entries after a failed archive, want 0", st.Len())
	}

	if !reflect.DeepEqual(got, summary) {
		t.Error("result with a failing store differs from the summary a successful archive publishes")
	}

	plain := New(Options{Workers: 1})
	defer plain.Close()
	want, err := plain.Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.Trace(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, want.Trace) {
		t.Error("rows of a point the store refused differ from a store-less run's")
	}
}
