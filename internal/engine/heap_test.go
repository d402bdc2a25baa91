//go:build !race

// The memory gate for store-attached engines. Race instrumentation
// perturbs heap sizes, so the gate only runs in non-race builds (CI
// runs it as a dedicated step).

package engine

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/trace"
	"repro/internal/world"
)

// TestStoreEngineHeapBounded: a store-attached engine that has run
// many distinct points holds their summaries, not their rows, whether
// its store archives them or fails every write (a store closed after
// the engine was built). The points' rows together would take several
// times the stated bound; the live heap the engine and its campaign
// outcomes keep after a collection must stay under it. The bound is
// the most row storage the engine may keep live — the archiver's
// backlog bound of one per worker, plus the one being written, plus one
// per worker, here 3 buffers — and 3 MiB of slack for the summaries,
// the store's index and the test's own state.
func TestStoreEngineHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("real closed-loop simulations")
	}
	const points, workers, actors = 96, 1, 2
	sc := trafficScenario("heap", 20, actors)
	steps := 20/0.01 + 1
	perPoint := uint64(steps * float64(unsafe.Sizeof(trace.Row{})+actors*unsafe.Sizeof(world.Agent{})))
	bound := (2*workers+1)*perPoint + 3<<20
	if retained := points * perPoint; retained < 3*bound {
		t.Fatalf("%d points retain %d row bytes, under 3x the %d-byte bound: the gate could not fail", points, retained, bound)
	}

	for _, failing := range []bool{false, true} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		st := openStore(t)
		e := New(Options{Workers: workers, Store: st})
		if failing {
			st.Close()
		}
		jobs := make([]Job, points)
		for i := range jobs {
			jobs[i] = Job{Scenario: sc, FPR: 10, Seed: int64(i + 1)}
		}
		br, err := e.RunBatch(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(br)
		runtime.KeepAlive(e)
		archived, storeErrs := int64(points), int64(0)
		if failing {
			archived, storeErrs = 0, points
		}
		if s := e.Stats(); s.Archived != archived || s.StoreErrors != storeErrs {
			t.Fatalf("failing store %v: engine stats = %+v, want %d archived and %d store errors",
				failing, s, archived, storeErrs)
		}
		e.Close()
		live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		t.Logf("failing store %v: %d points of %d row bytes each: %d live heap bytes after the campaign (bound %d)",
			failing, points, perPoint, live, bound)
		if live > int64(bound) {
			t.Errorf("failing store %v: live heap grew by %d bytes over %d points (bound %d): the engine retains rows",
				failing, live, points, bound)
		}
	}
}
