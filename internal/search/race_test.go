package search

// Concurrency wall: searches sharing one engine must be race-clean
// (CI runs this under -race), must not leak state into each other's
// populations, and must let the engine's singleflight collapse
// identical candidates to a single execution.

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

// TestSearchConcurrentSharedEngineNoCrossTalk: two different-seed
// searches racing on one shared engine each reproduce exactly the
// corpus they produce alone on a private engine.
func TestSearchConcurrentSharedEngineNoCrossTalk(t *testing.T) {
	optA, optB := testOptions(), testOptions()
	optB.Seed = 77
	optB.Families = []scenario.Family{scenario.FamilyParkedCorridor, scenario.FamilyCutIn}
	_, _, aloneA := runSearch(t, fakeEngine(t, 4), optA)
	_, _, aloneB := runSearch(t, fakeEngine(t, 4), optB)

	shared := fakeEngine(t, 8)
	var sharedA, sharedB []byte
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _, _, sharedA = runSearch(t, shared, optA) }()
	go func() { defer wg.Done(); _, _, sharedB = runSearch(t, shared, optB) }()
	wg.Wait()
	if !bytes.Equal(aloneA, sharedA) {
		t.Fatal("search A's corpus changed when sharing an engine")
	}
	if !bytes.Equal(aloneB, sharedB) {
		t.Fatal("search B's corpus changed when sharing an engine")
	}
}

// TestSearchConcurrentIdenticalSingleflight: two identical searches
// racing on one engine+store-less cache execute every (scenario, fpr,
// seed) point at most once — identical genomes share a spec
// fingerprint, which is what lets the singleflight tier see the
// duplicates.
func TestSearchConcurrentIdenticalSingleflight(t *testing.T) {
	var mu sync.Mutex
	executed := map[store.Key]int{}
	runner := func(j engine.Job) (*sim.Result, error) {
		mu.Lock()
		executed[store.KeyForScenario(j.Scenario, j.FPR, j.Seed)]++
		mu.Unlock()
		return fakeRunner(j)
	}
	eng := engine.New(engine.Options{Workers: 8, Runner: runner})
	t.Cleanup(eng.Close)

	optA, optB := testOptions(), testOptions()
	var corpusA, corpusB []byte
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _, _, corpusA = runSearch(t, eng, optA) }()
	go func() { defer wg.Done(); _, _, corpusB = runSearch(t, eng, optB) }()
	wg.Wait()
	if !bytes.Equal(corpusA, corpusB) {
		t.Fatal("identical concurrent searches disagree")
	}
	stats := eng.Stats()
	if int(stats.Executed) != len(executed) {
		t.Fatalf("%d executions for %d distinct points", stats.Executed, len(executed))
	}
	for k, n := range executed {
		if n != 1 {
			t.Fatalf("point %+v executed %d times, want 1 (singleflight broken)", k, n)
		}
	}
	if stats.CacheHits == 0 {
		t.Fatal("no cache hits across identical concurrent searches")
	}
}
