package hist

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 100, 1000, 1 << 20, 1<<40 + 12345, 1<<63 + 9, ^uint64(0)} {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex(%d) = %d < previous %d", v, idx, prev)
		}
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range [0,%d)", v, idx, numBuckets)
		}
		prev = idx
	}
}

func TestBucketUpperContainsValue(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		v := uint64(rng.Int63()) >> uint(rng.Intn(60))
		idx := bucketIndex(v)
		u := bucketUpper(idx)
		if v > u {
			t.Fatalf("value %d above its bucket %d upper bound %d", v, idx, u)
		}
		if idx+1 < numBuckets && v > bucketUpper(idx+1) {
			t.Fatalf("value %d above next bucket's upper bound", v)
		}
		// Relative error of reporting the upper bound is at most one
		// sub-bucket: 1/subBuckets = 12.5%.
		if v >= subBuckets && float64(u-v) > float64(v)/subBuckets {
			t.Fatalf("value %d: upper bound %d overshoots by more than 12.5%%", v, u)
		}
	}
}

func TestExactCountSumMax(t *testing.T) {
	h := New()
	var sum, max uint64
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i * 37)
		h.Observe(d)
		sum += uint64(d)
		if uint64(d) > max {
			max = uint64(d)
		}
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Sum != sum || s.Max != max {
		t.Fatalf("snapshot count/sum/max = %d/%d/%d, want 1000/%d/%d", s.Count, s.Sum, s.Max, sum, max)
	}
}

func TestQuantileAccuracy(t *testing.T) {
	h := New()
	// Uniform 1..10000 ns, every value once: the q-quantile is q*10000.
	for i := 1; i <= 10000; i++ {
		h.ObserveShard(time.Duration(i), uint32(i))
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
		got := float64(s.Quantile(q))
		want := q * 10000
		if got < want || got > want*1.125+1 {
			t.Fatalf("Quantile(%v) = %v, want within [%v, %v]", q, got, want, want*1.125+1)
		}
	}
	if s.Quantile(1) != 10000 {
		t.Fatalf("Quantile(1) = %d, want clamped to max 10000", s.Quantile(1))
	}
}

func TestEmptyAndNegative(t *testing.T) {
	h := New()
	s := h.Snapshot()
	if s.Quantile(0.99) != 0 || s.Mean() != 0 {
		t.Fatal("empty snapshot should report zeros")
	}
	h.Observe(-time.Second)
	s = h.Snapshot()
	if s.Count != 1 || s.Sum != 0 || s.Quantile(1) != 0 {
		t.Fatalf("negative duration should clamp to zero, got %+v", s)
	}
}

func TestConcurrentObserve(t *testing.T) {
	h := New()
	const workers, per = 16, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.ObserveShard(time.Duration(i+1), uint32(w))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var bucketTotal uint64
	for _, c := range s.counts {
		bucketTotal += c
	}
	if bucketTotal != workers*per {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, workers*per)
	}
}

func BenchmarkObserveShard(b *testing.B) {
	h := New()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		hint := uint32(rand.Int31())
		var d time.Duration
		for pb.Next() {
			d += 97
			h.ObserveShard(d, hint)
		}
	})
}
