package core

import (
	"math"
	"testing"
)

func feasible(l float64) LatencyResult { return LatencyResult{Latency: l, Feasible: true, Evals: 1} }

func TestAggregateEmptyAndSingle(t *testing.T) {
	if got := Aggregate(nil, nil, AggregateOptions{}, nil); got.Feasible {
		t.Errorf("empty aggregate = %+v", got)
	}
	single := feasible(0.4)
	got := Aggregate([]LatencyResult{single}, []float64{1}, AggregateOptions{Mode: AggMean}, nil)
	if got != single {
		t.Errorf("single aggregate = %+v", got)
	}
}

func TestAggregatePessimisticTakesMinLatency(t *testing.T) {
	results := []LatencyResult{feasible(0.8), feasible(0.2), feasible(0.5)}
	probs := []float64{0.5, 0.1, 0.4}
	got := Aggregate(results, probs, AggregateOptions{Mode: AggPessimistic}, nil)
	if got.Latency != 0.2 || !got.Feasible {
		t.Errorf("pessimistic = %+v", got)
	}
}

func TestAggregateMeanWeighted(t *testing.T) {
	results := []LatencyResult{feasible(1.0), feasible(0.0)}
	probs := []float64{0.75, 0.25}
	got := Aggregate(results, probs, AggregateOptions{Mode: AggMean}, nil)
	if math.Abs(got.Latency-0.75) > 1e-9 {
		t.Errorf("mean = %v", got.Latency)
	}
}

func TestAggregatePercentile(t *testing.T) {
	// Four equally likely trajectories; p99 should pick the smallest
	// latency (most demanding), p50 the median region.
	results := []LatencyResult{feasible(0.1), feasible(0.4), feasible(0.7), feasible(1.0)}
	probs := []float64{0.25, 0.25, 0.25, 0.25}
	p99 := Aggregate(results, probs, AggregateOptions{Mode: AggPercentile, Percentile: 99}, nil)
	if p99.Latency != 0.1 {
		t.Errorf("p99 latency = %v, want 0.1", p99.Latency)
	}
	p50 := Aggregate(results, probs, AggregateOptions{Mode: AggPercentile, Percentile: 50}, nil)
	if p50.Latency != 0.4 && p50.Latency != 0.7 {
		t.Errorf("p50 latency = %v", p50.Latency)
	}
	p0 := Aggregate(results, probs, AggregateOptions{Mode: AggPercentile, Percentile: 0}, nil)
	if p0.Latency != 1.0 {
		t.Errorf("p0 latency = %v, want 1.0", p0.Latency)
	}
}

func TestAggregatePercentileSkipsRareOutlier(t *testing.T) {
	// A 0.5%-probability catastrophic hypothesis should not dominate the
	// 99th percentile ("cautious while not too pessimistic").
	results := []LatencyResult{feasible(0.033), feasible(0.6), feasible(0.9)}
	probs := []float64{0.005, 0.5, 0.495}
	p99 := Aggregate(results, probs, AggregateOptions{Mode: AggPercentile, Percentile: 99}, nil)
	if p99.Latency != 0.6 {
		t.Errorf("p99 latency = %v, want 0.6 (outlier skipped)", p99.Latency)
	}
	pess := Aggregate(results, probs, AggregateOptions{Mode: AggPessimistic}, nil)
	if pess.Latency != 0.033 {
		t.Errorf("pessimistic latency = %v, want 0.033", pess.Latency)
	}
}

func TestAggregateOrdering(t *testing.T) {
	// For any trajectory set: pessimistic <= p99 <= p50 <= p0 in latency.
	results := []LatencyResult{feasible(0.2), feasible(0.5), feasible(0.8), feasible(1.0)}
	probs := []float64{0.1, 0.2, 0.3, 0.4}
	pess := Aggregate(results, probs, AggregateOptions{Mode: AggPessimistic}, nil).Latency
	p99 := Aggregate(results, probs, AggregateOptions{Mode: AggPercentile, Percentile: 99}, nil).Latency
	p50 := Aggregate(results, probs, AggregateOptions{Mode: AggPercentile, Percentile: 50}, nil).Latency
	p0 := Aggregate(results, probs, AggregateOptions{Mode: AggPercentile, Percentile: 0}, nil).Latency
	if !(pess <= p99 && p99 <= p50 && p50 <= p0) {
		t.Errorf("ordering violated: %v, %v, %v, %v", pess, p99, p50, p0)
	}
}

func TestAggregateInfeasibleMembers(t *testing.T) {
	// One infeasible hypothesis: pessimistic mode collapses to
	// infeasible; mean treats it as zero latency.
	results := []LatencyResult{{Feasible: false, Evals: 3}, feasible(0.5)}
	probs := []float64{0.5, 0.5}
	pess := Aggregate(results, probs, AggregateOptions{Mode: AggPessimistic}, nil)
	if pess.Feasible {
		t.Errorf("pessimistic with infeasible member = %+v", pess)
	}
	mean := Aggregate(results, probs, AggregateOptions{Mode: AggMean}, nil)
	if !mean.Feasible || math.Abs(mean.Latency-0.25) > 1e-9 {
		t.Errorf("mean = %+v", mean)
	}
	// All infeasible: result infeasible, evals accumulated.
	all := Aggregate([]LatencyResult{{Feasible: false, Evals: 2}, {Feasible: false, Evals: 3}}, nil, AggregateOptions{}, nil)
	if all.Feasible || all.Evals != 5 {
		t.Errorf("all infeasible = %+v", all)
	}
}

func TestAggregateMissingProbsDefaultUniform(t *testing.T) {
	results := []LatencyResult{feasible(0.2), feasible(0.8)}
	got := Aggregate(results, nil, AggregateOptions{Mode: AggMean}, nil)
	if math.Abs(got.Latency-0.5) > 1e-9 {
		t.Errorf("uniform mean = %v", got.Latency)
	}
}

func TestAggregateAccumulatesEvals(t *testing.T) {
	results := []LatencyResult{feasible(0.2), feasible(0.8)}
	got := Aggregate(results, nil, AggregateOptions{Mode: AggPessimistic}, nil)
	if got.Evals != 2 {
		t.Errorf("evals = %d", got.Evals)
	}
}

func TestAggregateNoThreatPropagation(t *testing.T) {
	nt := LatencyResult{Latency: 1, Feasible: true, NoThreat: true}
	th := feasible(0.5)
	got := Aggregate([]LatencyResult{nt, nt}, nil, AggregateOptions{Mode: AggPessimistic}, nil)
	if !got.NoThreat {
		t.Error("all-NoThreat set lost the flag")
	}
	got = Aggregate([]LatencyResult{nt, th}, nil, AggregateOptions{Mode: AggPessimistic}, nil)
	if got.NoThreat {
		t.Error("mixed set kept NoThreat")
	}
}
