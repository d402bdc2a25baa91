package core

import (
	"cmp"
	"math"
	"slices"
)

// Aggregation selects how per-trajectory latencies collapse into one
// per-actor latency (Eq. 4). The paper discusses three choices:
// "maximum provides the most pessimistic estimate" (the largest FPR,
// i.e. the smallest latency), "average gives more weight to the most
// likely future trajectory", and an nth percentile that "allows the ego
// to be cautious while being not too pessimistic".
type Aggregation int

const (
	// AggPessimistic takes the smallest tolerable latency (the largest
	// FPR requirement) across trajectories.
	AggPessimistic Aggregation = iota
	// AggMean takes the probability-weighted mean latency.
	AggMean
	// AggPercentile takes the latency whose implied FPR requirement is
	// at the configured percentile of the probability-weighted FPR
	// distribution (Eq. 4 with n = Percentile).
	AggPercentile
)

// AggregateOptions configures Aggregate.
type AggregateOptions struct {
	Mode       Aggregation
	Percentile float64 // used by AggPercentile, e.g. 99
}

// Aggregate collapses per-trajectory results into a single per-actor
// latency. Infeasible trajectories act as zero-latency (infinite-rate)
// members, so any infeasible trajectory forces a pessimistic result
// under AggPessimistic. If every trajectory is infeasible the result is
// infeasible. Probabilities are taken from the trajectories' weights and
// renormalized. scratch, when non-nil, supplies reusable sort storage
// for the percentile mode; a nil scratch allocates it.
func Aggregate(results []LatencyResult, probs []float64, opt AggregateOptions, scratch *[]aggEntry) LatencyResult {
	if len(results) == 0 {
		return LatencyResult{}
	}
	if len(results) == 1 {
		return results[0]
	}

	total := 0.0
	for i := range results {
		p := weightOf(probs, i)
		total += p
	}
	if total <= 0 {
		total = float64(len(results))
	}

	evals := 0
	feasibleAny := false
	noThreatAll := true
	for _, r := range results {
		evals += r.Evals
		if r.Feasible {
			feasibleAny = true
		}
		if !r.NoThreat {
			noThreatAll = false
		}
	}
	if !feasibleAny {
		return LatencyResult{Feasible: false, Evals: evals}
	}

	out := LatencyResult{Feasible: true, NoThreat: noThreatAll, Evals: evals}
	switch opt.Mode {
	case AggMean:
		sum := 0.0
		for i, r := range results {
			sum += weightOf(probs, i) / total * latencyOrZero(r)
		}
		out.Latency = sum
	case AggPercentile:
		out.Latency = percentileLatency(results, probs, total, opt.Percentile, scratch)
	default: // AggPessimistic
		min := math.Inf(1)
		for _, r := range results {
			l := latencyOrZero(r)
			if l < min {
				min = l
			}
		}
		out.Latency = min
		if min == 0 {
			// An infeasible member dominates the pessimistic view.
			out.Feasible = false
		}
	}
	return out
}

func weightOf(probs []float64, i int) float64 {
	if i < len(probs) && probs[i] > 0 {
		return probs[i]
	}
	return 1
}

func latencyOrZero(r LatencyResult) float64 {
	if !r.Feasible {
		return 0
	}
	return r.Latency
}

// aggEntry is one (latency, weight) member of the percentile sort.
type aggEntry struct {
	l float64
	w float64
}

// percentileLatency returns the latency at the pct-th percentile of the
// FPR-requirement distribution: sort by ascending latency (descending
// requirement) and walk the cumulative probability until 100−pct has
// been discarded. pct = 100 reproduces the pessimistic minimum latency;
// pct = 0 the maximum. scratch, when non-nil, supplies reusable sort
// storage so the hot serving path aggregates without allocating.
func percentileLatency(results []LatencyResult, probs []float64, total, pct float64, scratch *[]aggEntry) float64 {
	var entries []aggEntry
	if scratch != nil {
		entries = (*scratch)[:0]
	} else {
		entries = make([]aggEntry, 0, len(results))
	}
	for i, r := range results {
		entries = append(entries, aggEntry{l: latencyOrZero(r), w: weightOf(probs, i) / total})
	}
	if scratch != nil {
		*scratch = entries
	}
	slices.SortFunc(entries, func(a, b aggEntry) int { return cmp.Compare(a.l, b.l) })
	discard := (100 - pct) / 100
	acc := 0.0
	for _, e := range entries {
		acc += e.w
		if acc >= discard-1e-12 {
			return e.l
		}
	}
	return entries[len(entries)-1].l
}
