// Package hist provides fixed-footprint, lock-free latency histograms.
//
// A Histogram is a set of log-bucketed counter arrays sharded across
// independent cache-line groups: recording is one or two atomic adds,
// never a lock, never an allocation. Buckets are logarithmic with
// linear sub-buckets (8 per octave), bounding the relative error of any
// reported quantile at 12.5% while keeping the whole structure a few
// tens of kilobytes regardless of how many observations it absorbs.
//
// The serving tier keeps one Histogram per route (see
// internal/server) and reports them on GET /v1/stats.
package hist

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	subBits = 3
	// subBuckets is the number of linear sub-buckets per power of two.
	subBuckets = 1 << subBits
	// numBuckets covers the full uint64 nanosecond range:
	// subBuckets exact buckets below 2^subBits plus subBuckets per
	// remaining octave.
	numBuckets = subBuckets + (64-subBits)*subBuckets

	// NumShards is the number of independent counter shards per
	// histogram. Must be a power of two.
	NumShards = 8
)

// shard is one independent group of counters. Writers touch exactly one
// shard per observation, so unrelated goroutines with distinct shard
// hints never contend on the same cache lines.
type shard struct {
	counts [numBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
	_      [64]byte
}

// Histogram is a lock-free, log-bucketed histogram of durations.
// The zero value is ready to use. Histograms must not be copied after
// first use.
type Histogram struct {
	shards [NumShards]shard
	rotor  atomic.Uint32
}

// New returns an empty histogram.
func New() *Histogram { return &Histogram{} }

// bucketIndex maps a nanosecond value to its bucket. Values below
// subBuckets get exact buckets; above that, each power of two is split
// into subBuckets linear ranges.
func bucketIndex(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	e := uint(bits.Len64(v)) - 1 - subBits
	return subBuckets + int(e)<<subBits + int((v>>e)&(subBuckets-1))
}

// bucketUpper is the largest value that lands in bucket idx; quantiles
// report this bound so they overestimate (conservatively) by at most
// one sub-bucket width.
func bucketUpper(idx int) uint64 {
	if idx < subBuckets {
		return uint64(idx)
	}
	e := uint(idx>>subBits) - 1
	sub := uint64(idx & (subBuckets - 1))
	return (subBuckets+sub+1)<<e - 1
}

// Observe records one duration, choosing a shard round-robin. Negative
// durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	h.ObserveShard(d, h.rotor.Add(1))
}

// ObserveShard records one duration into the shard selected by hint
// (reduced modulo NumShards). Callers that hold a stable per-worker
// hint (a pooled scratch, a load-generator worker) avoid even the
// rotor's shared counter: the whole observation is atomic adds on
// counters no other hint touches.
func (h *Histogram) ObserveShard(d time.Duration, hint uint32) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	s := &h.shards[hint&(NumShards-1)]
	s.counts[bucketIndex(v)].Add(1)
	s.count.Add(1)
	s.sum.Add(v)
	for {
		cur := s.max.Load()
		if v <= cur || s.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot is a merged, immutable copy of a histogram's counters.
type Snapshot struct {
	// Count is the total number of observations.
	Count uint64
	// Sum is the exact sum of all observed durations in nanoseconds.
	Sum uint64
	// Max is the exact maximum observed duration in nanoseconds.
	Max uint64

	counts [numBuckets]uint64
}

// Snapshot merges all shards into one consistent-enough view: each
// counter is read atomically, but concurrent writers may land between
// reads, so totals can trail in-flight observations by a few counts.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.shards {
		sh := &h.shards[i]
		s.Count += sh.count.Load()
		s.Sum += sh.sum.Load()
		if m := sh.max.Load(); m > s.Max {
			s.Max = m
		}
		for b := range sh.counts {
			s.counts[b] += sh.counts[b].Load()
		}
	}
	return s
}

// Quantile returns the q-quantile (q in [0,1]) in nanoseconds, as the
// upper bound of the bucket holding the rank-q observation — at most
// 12.5% above the true value. Returns 0 for an empty snapshot.
func (s *Snapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for idx, c := range s.counts {
		cum += c
		if cum >= rank {
			u := bucketUpper(idx)
			if u > s.Max {
				u = s.Max
			}
			return u
		}
	}
	return s.Max
}

// Mean returns the exact mean in nanoseconds, 0 when empty.
func (s *Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
