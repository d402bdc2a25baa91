package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkStoreOpen times Open (the streaming manifest parse) and
// Close on stores of N distinct keys. Every key shares one artifact
// object, so a 100k-entry store is a 39 MB manifest and one small
// trace rather than a recorded trace per key. 108 is the size of a
// Table-1 store (9 scenarios × 12 rates × 1 seed); -short swaps the
// 100k store for a few hundred entries.
func BenchmarkStoreOpen(b *testing.B) {
	sizes := []int{108, 100_000}
	if testing.Short() {
		sizes = []int{108, 300}
	}
	for _, n := range sizes {
		dir := syntheticStore(b, n)
		b.Run(fmt.Sprintf("entries=%d/Open", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if st.Len() != n {
					b.Fatalf("Len = %d, want %d", st.Len(), n)
				}
				st.Close()
				b.StartTimer()
			}
		})
		b.Run(fmt.Sprintf("entries=%d/Close", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st, err := Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// syntheticStore writes a store whose manifest holds n distinct keys
// (seeds 1..n) that all point at one archived trace.
func syntheticStore(b testing.TB, n int) string {
	b.Helper()
	dir := b.TempDir()
	st, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	proto, _, err := st.Put("bench", key("bench", 10, 1), syntheticResult("bench", 10, 1, 30, true))
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "manifest.jsonl"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		b.Fatal(err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for seed := int64(2); seed <= int64(n); seed++ {
		e := proto
		e.Key.Seed = seed
		if err := enc.Encode(e); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}
