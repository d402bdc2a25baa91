//go:build !race

// Race instrumentation perturbs allocation counts, so this gate only
// runs in non-race builds.

package store

import (
	"runtime"
	"testing"
)

// TestRefreshAllocBudget: a Refresh that finds one line appended by
// another handle reads it through a buffer sized to that line, so it
// allocates the line, its entry, and the manifest's stat and open. A
// reader sized for the whole manifest allocates 256 KiB per refresh.
func TestRefreshAllocBudget(t *testing.T) {
	const budget = 16 << 10
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, _, err := w.Put("alloc", key("alloc", 10, 1), syntheticResult("alloc", 10, 1, 20, true)); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st.Refresh()
	runtime.ReadMemStats(&after)
	if st.Len() != 1 {
		t.Fatalf("Refresh found %d entries, want 1", st.Len())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
		t.Errorf("Refresh of one line allocated %d bytes, budget %d", got, budget)
	}
}

// TestOpenAllocBudget: Open of a 1,000-entry manifest allocates, per
// entry, its artifact string, its collision, and its frames_processed
// map and the map's first group: 4.0, plus the index, the reader's
// buffer and the files, sized once. Copying each line, holding each
// Entry in the map through a pointer, regrowing the index and a heap
// Entry per line read 7.06 per entry before.
func TestOpenAllocBudget(t *testing.T) {
	const (
		entries = 1000
		budget  = 4.2 // allocations per entry
	)
	dir := syntheticStore(t, entries)
	allocs := testing.AllocsPerRun(5, func() {
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st.Len() != entries {
			t.Fatalf("Len = %d, want %d", st.Len(), entries)
		}
		st.Close()
	})
	if per := allocs / entries; per > budget {
		t.Errorf("Open allocated %.2f per entry, budget %.1f", per, budget)
	} else {
		t.Logf("Open allocated %.2f per entry, budget %.1f", per, budget)
	}
}
