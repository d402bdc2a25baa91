//go:build !race

// The allocation-budget regression gate for replay. Race
// instrumentation perturbs allocation counts, so the gate only runs in
// non-race builds (CI runs it as a dedicated step).

package replay

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

// TestReplayAllocBudget pins the bytes a replay worker allocates per
// entry once its storage has grown: reading, decoding and evaluating a
// Table-1 point into storage an earlier point left may allocate only
// the summary, the header and the object's open and stat. The store
// files each Table-1 scenario's 30-FPR run under two names, "a" and
// "b", so both halves hold the same objects. A pass over "a" and "b"
// replays "b" after storage sized for the same traces; its extra
// allocation over a pass of "a" alone, per entry, is the steady state.
// A worker that decodes or evaluates into fresh storage pays a
// trace's rows, actors, bytes and evaluation, over 1 MB per point.
func TestReplayAllocBudget(t *testing.T) {
	const budget = 32 << 10
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	table1 := scenario.All()
	for _, sc := range table1 {
		res, err := sim.Run(sc.Build(30, 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"a", "b"} {
			key := store.KeyForScenario(scenario.Spec{Name: name}.Scenario(), 30, int64(len(st.Entries())))
			if _, _, err := st.Put(name, key, res); err != nil {
				t.Fatal(err)
			}
		}
	}

	replayed := func(names ...string) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rep, err := Run(context.Background(), st, Options{Workers: 1, Scenarios: names})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Summaries) != len(names)*len(table1) {
			t.Fatalf("replayed %d entries, want %d", len(rep.Summaries), len(names)*len(table1))
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	replayed("a", "b") // the first calls grow the runtime's own state
	one, both := replayed("a"), replayed("a", "b")
	perEntry := (both - one) / uint64(len(table1))
	t.Logf("a: %d bytes over %d entries; a+b: %d bytes; %d bytes per steady-state entry (budget %d)",
		one, len(table1), both, perEntry, budget)
	if both < one || perEntry > budget {
		t.Errorf("a steady-state replay allocated %d bytes per entry (budget %d): the worker regressed to fresh decode or evaluation storage",
			perEntry, budget)
	}
}
