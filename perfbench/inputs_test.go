package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
)

// digest hashes everything a workload seed generates: the grid, the
// snapshot source runs, the rate request bodies in both wire modes, and
// the first background campaign bodies.
func digest(t *testing.T, seed int64) map[string][32]byte {
	t.Helper()
	f, err := newRateFixture(seed)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][32]byte{}
	keys := func(name string, in []string) { out[name] = sha256.Sum256([]byte(fmt.Sprint(in))) }
	var grid, sources []string
	for _, j := range f.in.grid {
		grid = append(grid, fmt.Sprintf("%s/%g/%d", j.Scenario.Name, j.FPR, j.Seed))
	}
	for _, j := range f.in.sources {
		sources = append(sources, fmt.Sprintf("%s/%g/%d", j.Scenario.Name, j.FPR, j.Seed))
	}
	keys("grid", grid)
	keys("sources", sources)
	h := sha256.New()
	for _, r := range f.reqs {
		h.Write(r.body[0])
		h.Write(r.body[1])
	}
	out["rate"] = [32]byte(h.Sum(nil))
	for b := range 2 {
		body, _, err := backgroundBody(f.in, b)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("background-%d", b)] = sha256.Sum256(body)
	}
	return out
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	a, b, c := digest(t, 7), digest(t, 7), digest(t, 8)
	for name, h := range a {
		if b[name] != h {
			t.Errorf("%s: seed 7 generated different inputs twice", name)
		}
		if c[name] == h {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}
	if len(a) != 5 {
		t.Fatalf("digested %d input sets, want 5", len(a))
	}
}

func TestGridShape(t *testing.T) {
	in := newInputs(1)
	if got, want := len(in.grid), 9*12*gridSeeds; got != want {
		t.Errorf("grid has %d points, want %d", got, want)
	}
	seen := map[string]bool{}
	for _, j := range in.grid {
		k := fmt.Sprintf("%s/%g/%d", j.Scenario.Name, j.FPR, j.Seed)
		if seen[k] {
			t.Errorf("duplicate grid point %s", k)
		}
		seen[k] = true
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json at the repository root to
// the workloads and metric catalogs the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program reports %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
