package engine

import (
	"context"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// specScenario compiles a tiny but real closed-loop scenario, so these
// tests exercise DefaultRunner (the production level-threading path)
// instead of a fake.
func specScenario(name string) scenario.Scenario {
	sp := scenario.Spec{
		Name:        name,
		EgoSpeedMPH: 30,
		Road:        scenario.RoadDef{Lanes: 2, Length: 2000},
		Duration:    1.5,
	}
	return sp.Scenario()
}

// TestEngineRecordLevelThreadsToRuns proves Options.Record reaches the
// simulator: a summary engine yields row-less results, an off engine
// trace-less ones, and the default stays full.
func TestEngineRecordLevelThreadsToRuns(t *testing.T) {
	sc := specScenario("record-level")
	for _, tc := range []struct {
		level trace.Level
	}{{trace.LevelFull}, {trace.LevelSummary}, {trace.LevelOff}} {
		e := New(Options{Workers: 2, Record: tc.level})
		res, err := e.Run(context.Background(), Job{Scenario: sc, FPR: 10, Seed: 1})
		e.Close()
		if err != nil {
			t.Fatalf("%v: %v", tc.level, err)
		}
		if res.Level != tc.level {
			t.Errorf("level %v: result level %v", tc.level, res.Level)
		}
		switch tc.level {
		case trace.LevelFull:
			if res.Trace == nil || res.Trace.Len() == 0 {
				t.Errorf("full engine returned empty trace: %+v", res.Trace)
			}
		case trace.LevelSummary:
			if res.Trace == nil || res.Trace.Len() != 0 {
				t.Errorf("summary engine trace = %+v, want header-only", res.Trace)
			}
		case trace.LevelOff:
			if res.Trace != nil {
				t.Errorf("off engine trace = %+v, want nil", res.Trace)
			}
		}
	}
}

// TestStoreUpgradesRecordLevel proves the "store-recorded runs stay
// full" policy: on a summary-level engine with a persistent store,
// persistable jobs run (and archive) full traces — they answer with the
// stored summary, whose rows Trace reads back — while jobs with a
// Configure hook are not persistable and keep the summary level.
func TestStoreUpgradesRecordLevel(t *testing.T) {
	sc := specScenario("record-upgrade")
	st := openStore(t)
	e := New(Options{Workers: 2, Store: st, Record: trace.LevelSummary})
	defer e.Close()

	job := Job{Scenario: sc, FPR: 10, Seed: 1}
	plain, err := e.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	requireSummary(t, "persistable job on store engine", plain)
	tr, err := e.Trace(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil || tr.Len() == 0 || tr.Len() != plain.ArchivedRows {
		t.Fatalf("persistable job on store engine: trace %v, %d rows archived — want an archivable full trace", tr, plain.ArchivedRows)
	}
	if st.Len() != 1 {
		t.Fatalf("store has %d entries, want the archived run", st.Len())
	}
	if got := e.Stats().Archived; got != 1 {
		t.Fatalf("archived = %d, want 1", got)
	}

	hooked, err := e.Run(context.Background(), Job{Scenario: sc, FPR: 10, Seed: 1, Configure: func(*sim.Config) {}})
	if err != nil {
		t.Fatal(err)
	}
	if hooked.Level != trace.LevelSummary {
		t.Errorf("hooked job level = %v, want summary (not persistable, no upgrade)", hooked.Level)
	}
	if st.Len() != 1 {
		t.Errorf("hooked run reached the store (%d entries)", st.Len())
	}
}

// TestArchiveRefusesNonFullResults injects a runner that ignores the
// job's record level: the store guard must reject the trace-less
// result — counted, not propagated — so the persistent tier can never
// serve a summary run as a disk hit.
func TestArchiveRefusesNonFullResults(t *testing.T) {
	st := openStore(t)
	rogue := func(j Job) (*sim.Result, error) {
		return &sim.Result{
			Trace:           &trace.Trace{Meta: trace.Meta{Scenario: j.Scenario.Name, FPR: j.FPR, Seed: j.Seed}},
			FramesProcessed: map[string]int{},
			Level:           trace.LevelSummary,
		}, nil
	}
	e := New(Options{Workers: 1, Store: st, Runner: rogue})
	defer e.Close()

	res, err := e.Run(context.Background(), Job{Scenario: fakeScenario("rogue"), FPR: 5, Seed: 1})
	if err != nil || res == nil {
		t.Fatalf("run failed: %v", err)
	}
	if st.Len() != 0 {
		t.Fatalf("summary-level result was archived (%d entries)", st.Len())
	}
	if got := e.Stats().StoreErrors; got != 1 {
		t.Errorf("store errors = %d, want 1 (the rejected archive)", got)
	}
	if got := e.Stats().Archived; got != 0 {
		t.Errorf("archived = %d, want 0", got)
	}
}

// TestSummaryEngineCacheIsLevelConsistent re-runs a point on a summary
// engine: the cache hit returns the same summary-level result, and a
// full-level engine at the same point is a distinct engine with its
// own (full) results — levels never mix within one cache.
func TestSummaryEngineCacheIsLevelConsistent(t *testing.T) {
	sc := specScenario("record-cache")
	e := New(Options{Workers: 2, Record: trace.LevelSummary})
	defer e.Close()
	job := Job{Scenario: sc, FPR: 10, Seed: 1}

	first := e.RunJob(context.Background(), job)
	second := e.RunJob(context.Background(), job)
	if first.Err != nil || second.Err != nil {
		t.Fatalf("errs: %v, %v", first.Err, second.Err)
	}
	if second.Source != SourceMemory {
		t.Fatalf("second run source = %v, want memory", second.Source)
	}
	if second.Result != first.Result {
		t.Error("cache hit returned a different result value")
	}
	if second.Result.Level != trace.LevelSummary {
		t.Errorf("cached level = %v", second.Result.Level)
	}
}

// TestSpecDeclaredLevelSurvivesEngine pins the top-down flow: a
// scenario whose spec declares a summary level keeps it through a
// default (full-policy) engine, and a store-attached engine still
// forces the archivable full trace over the spec's declaration.
func TestSpecDeclaredLevelSurvivesEngine(t *testing.T) {
	sp := scenario.Spec{
		Name:        "spec-level",
		EgoSpeedMPH: 30,
		Road:        scenario.RoadDef{Lanes: 2, Length: 2000},
		Duration:    1.5,
		Record:      trace.LevelSummary,
	}
	sc := sp.Scenario()

	e := New(Options{Workers: 1})
	res, err := e.Run(context.Background(), Job{Scenario: sc, FPR: 10, Seed: 1})
	e.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != trace.LevelSummary || res.Trace == nil || res.Trace.Len() != 0 {
		t.Fatalf("spec-declared summary lost through the engine: level %v, trace %v", res.Level, res.Trace)
	}

	st := openStore(t)
	se := New(Options{Workers: 1, Store: st})
	defer se.Close()
	job := Job{Scenario: sc, FPR: 10, Seed: 1}
	sres, err := se.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	requireSummary(t, "spec-declared summary on a store engine", sres)
	tr, err := se.Trace(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil || tr.Len() == 0 || tr.Len() != sres.ArchivedRows {
		t.Fatalf("store engine did not force full over the spec declaration: trace %v", tr)
	}
	if st.Len() != 1 {
		t.Fatalf("store has %d entries, want the archived run", st.Len())
	}
}
