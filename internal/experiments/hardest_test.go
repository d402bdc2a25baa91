package experiments

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// hardestFakeRunner scores scenarios without simulating: the name hash
// picks a collision threshold (or one of the off-grid ends), exactly
// like the search package's deterministic fake.
func hardestFakeRunner(grid []float64) engine.Runner {
	return func(j engine.Job) (*sim.Result, error) {
		h := fnv.New64a()
		h.Write([]byte(j.Scenario.Name))
		idx := int(h.Sum64() % uint64(len(grid)+2))
		res := &sim.Result{Level: trace.LevelSummary, MinBumperGap: 3}
		if idx == len(grid)+1 || (idx < len(grid) && j.FPR < grid[idx]) {
			res.Collision = &trace.Collision{Time: 1, ActorID: "fake"}
		}
		return res, nil
	}
}

func hardestTestOptions() HardestOptions {
	return HardestOptions{
		TopN:        8,
		Seed:        3,
		Families:    []scenario.Family{scenario.FamilyCutIn, scenario.FamilyCrossing},
		Generations: 2,
		Population:  4,
		Seeds:       2,
		FPRGrid:     []float64{5, 10, 30},
	}
}

// TestHardestCorpusDeterministicAndConsistent checks the experiment's
// internal accounting — rows sorted hardest first, distributions that
// cover their corpora, medians that are corpus members, a verdict that
// matches the medians — and that two runs on fresh engines agree
// exactly.
func TestHardestCorpusDeterministicAndConsistent(t *testing.T) {
	grid := []float64{5, 10, 30}
	run := func() *HardestResult {
		eng := engine.New(engine.Options{Workers: 4, Runner: hardestFakeRunner(grid)})
		defer eng.Close()
		res, err := HardestCorpus(context.Background(), eng, hardestTestOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()

	if len(res.SearchRows) == 0 || len(res.SearchRows) > res.TopN {
		t.Fatalf("search rows %d, want 1..%d", len(res.SearchRows), res.TopN)
	}
	for i := 1; i < len(res.SearchRows); i++ {
		if res.SearchRows[i].MRF.Harder(res.SearchRows[i-1].MRF) {
			t.Errorf("row %d (%s) harder than row %d — corpus not sorted hardest first",
				i, res.SearchRows[i].MRF.Label, i-1)
		}
	}
	sum := 0
	for _, n := range res.SearchDist {
		sum += n
	}
	if sum != len(res.SearchRows) {
		t.Errorf("search dist covers %d, want %d", sum, len(res.SearchRows))
	}
	sum = 0
	for _, n := range res.BlindDist {
		sum += n
	}
	if sum != res.TopN {
		t.Errorf("blind dist covers %d, want %d", sum, res.TopN)
	}
	if res.SearchDist[res.SearchMedian.Label] == 0 {
		t.Errorf("search median %q is not a corpus member", res.SearchMedian.Label)
	}
	if res.BlindDist[res.BlindMedian.Label] == 0 {
		t.Errorf("blind median %q is not a baseline member", res.BlindMedian.Label)
	}
	if res.SearchHarder != res.SearchMedian.Harder(res.BlindMedian) {
		t.Errorf("verdict %v contradicts medians %s vs %s",
			res.SearchHarder, res.SearchMedian.Label, res.BlindMedian.Label)
	}
	if res.Evaluated <= 0 || res.Runs <= 0 {
		t.Errorf("accounting: evaluated %d, runs %d", res.Evaluated, res.Runs)
	}

	if again := run(); !reflect.DeepEqual(res, again) {
		t.Error("two runs on fresh engines disagree — experiment is not deterministic")
	}

	// The artifact must survive JSON (no infinities on the wire).
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("artifact not JSON-encodable: %v", err)
	}
	var back HardestResult
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, res) {
		t.Error("artifact does not round-trip through JSON")
	}
}

// TestMRFPointOrdering pins the hardness order: "<1" < finite < "+Inf".
func TestMRFPointOrdering(t *testing.T) {
	below := MRFPoint{BelowGrid: true, Label: "<1"}
	low := MRFPoint{Value: 2, Label: "2"}
	high := MRFPoint{Value: 30, Label: "30"}
	above := MRFPoint{AboveGrid: true, Label: "+Inf"}
	order := []MRFPoint{below, low, high, above}
	for i, p := range order {
		for k, q := range order {
			if got, want := p.Harder(q), i > k; got != want {
				t.Errorf("Harder(%s, %s) = %v, want %v", p.Label, q.Label, got, want)
			}
		}
	}
	if medianPoint(nil) != (MRFPoint{}) {
		t.Error("empty median not zero")
	}
	if m := medianPoint([]MRFPoint{above, below, low, high}); m != low {
		t.Errorf("lower median = %s, want 2", m.Label)
	}
	inf := mrfPointFromMetrics(metrics.MRF{Value: math.Inf(1)})
	if math.IsInf(inf.Value, 1) {
		t.Error("above-grid metrics value leaked +Inf into the JSON-bound field")
	}
	if !inf.AboveGrid || inf.Label != "+Inf" {
		t.Errorf("above-grid conversion: %+v", inf)
	}
}
