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
