package search

// The determinism/property wall around the search stack. Most tests
// inject a deterministic fake runner (collisions keyed on the genome
// name) so the evolutionary dynamics — determinism across runs and
// worker counts, monotone best-MRF, validity of every emitted spec —
// are exercised in milliseconds; the warm-store test runs the real
// simulator on a tiny budget to prove a rerun against a warm store
// schedules zero fresh simulations.

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/fnv"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// fakeRunner is a deterministic stand-in for the simulator: each
// scenario name hashes to a collision threshold on the default grid
// (or to "never collides" / "always collides"), so MRF scores are a
// pure function of the genome name.
func fakeRunner(j engine.Job) (*sim.Result, error) {
	grid := metrics.DefaultFPRGrid()
	h := fnv.New64a()
	h.Write([]byte(j.Scenario.Name))
	idx := int(h.Sum64() % uint64(len(grid)+2))
	collide := false
	switch {
	case idx == len(grid): // safe everywhere
	case idx == len(grid)+1:
		collide = true // unsafe everywhere
	default:
		collide = j.FPR < grid[idx]
	}
	res := &sim.Result{Level: trace.LevelSummary, MinBumperGap: 3}
	if collide {
		res.Collision = &trace.Collision{Time: 1, ActorID: "fake"}
	}
	return res, nil
}

func fakeEngine(t *testing.T, workers int) *engine.Engine {
	t.Helper()
	eng := engine.New(engine.Options{Workers: workers, Runner: fakeRunner})
	t.Cleanup(eng.Close)
	return eng
}

// testOptions is the shared tiny budget: two families (one of them a
// new search-exploitable family), three generations.
func testOptions() Options {
	return Options{
		Families:    []scenario.Family{scenario.FamilyCutIn, scenario.FamilyCutInChain},
		Seed:        5,
		Generations: 3,
		Population:  6,
		Seeds:       2,
	}
}

func runSearch(t *testing.T, eng *engine.Engine, opt Options) (*Result, []GenerationSummary, []byte) {
	t.Helper()
	var progress []GenerationSummary
	opt.Progress = func(g GenerationSummary) { progress = append(progress, g) }
	res, err := Search(context.Background(), eng, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, res); err != nil {
		t.Fatal(err)
	}
	return res, progress, buf.Bytes()
}

// TestSearchDeterministicAcrossRunsAndWorkers: the same options
// produce bitwise-identical corpora and progress streams on repeated
// runs and regardless of the engine's worker count.
func TestSearchDeterministicAcrossRunsAndWorkers(t *testing.T) {
	_, prog1, corpus1 := runSearch(t, fakeEngine(t, 1), testOptions())
	_, prog2, corpus2 := runSearch(t, fakeEngine(t, 8), testOptions())
	_, prog3, corpus3 := runSearch(t, fakeEngine(t, 8), testOptions())
	if !bytes.Equal(corpus1, corpus2) || !bytes.Equal(corpus2, corpus3) {
		t.Fatal("corpus bytes differ across runs / worker counts")
	}
	if !reflect.DeepEqual(prog1, prog2) || !reflect.DeepEqual(prog2, prog3) {
		t.Fatal("progress streams differ across runs / worker counts")
	}
	other := testOptions()
	other.Seed = 6
	_, _, corpus4 := runSearch(t, fakeEngine(t, 4), other)
	if bytes.Equal(corpus1, corpus4) {
		t.Fatal("different seeds produced identical corpora")
	}
}

// TestSearchBestMRFMonotone: per family, the best score reported per
// generation never decreases (elitism), and every generation reports.
func TestSearchBestMRFMonotone(t *testing.T) {
	opt := testOptions()
	_, progress, _ := runSearch(t, fakeEngine(t, 4), opt)
	if len(progress) != len(opt.Families)*opt.Generations {
		t.Fatalf("got %d progress lines, want %d", len(progress), len(opt.Families)*opt.Generations)
	}
	best := map[string]float64{}
	gen := map[string]int{}
	for _, g := range progress {
		score := g.BestMRF
		if g.BestAboveGrid {
			score = math.Inf(1)
		}
		if g.Generation != gen[g.Family]+1 {
			t.Fatalf("family %s: generation %d out of order", g.Family, g.Generation)
		}
		gen[g.Family] = g.Generation
		if prev, ok := best[g.Family]; ok && score < prev {
			t.Fatalf("family %s: best MRF decreased %v -> %v at generation %d",
				g.Family, prev, score, g.Generation)
		}
		best[g.Family] = score
	}
}

// TestSearchCorpusValidAndRegistrable: every emitted candidate is a
// valid, compilable, correctly named and tagged spec; the corpus is
// sorted hardest first and registers cleanly.
func TestSearchCorpusValidAndRegistrable(t *testing.T) {
	opt := testOptions()
	res, _, _ := runSearch(t, fakeEngine(t, 4), opt)
	if res.Evaluated < opt.Population*len(opt.Families) {
		t.Fatalf("evaluated %d candidates, want >= %d", res.Evaluated, opt.Population*len(opt.Families))
	}
	if len(res.Corpus) != res.Evaluated {
		t.Fatalf("corpus %d != evaluated %d with TopN unset", len(res.Corpus), res.Evaluated)
	}
	reg := scenario.NewRegistry()
	for _, c := range res.Corpus {
		if err := reg.RegisterSpec(c.Spec); err != nil {
			t.Fatal(err)
		}
	}
	prev := math.Inf(1)
	for _, c := range res.Corpus {
		if err := c.Spec.Validate(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if got := GenomeName(scenario.Family(c.Family), c.Spec); got != c.Name {
			t.Fatalf("candidate name %s does not match its content address %s", c.Name, got)
		}
		if !c.Spec.HasTag(TagSearch) || !c.Spec.HasTag(c.Family) || !c.Spec.HasTag(scenario.TagGenerated) {
			t.Fatalf("%s: missing search/family tags %v", c.Name, c.Spec.Tags)
		}
		if err := sim.ValidateConfig(c.Spec.Compile(7.5, 3)); err != nil {
			t.Fatalf("%s: compiled config invalid: %v", c.Name, err)
		}
		if c.score() > prev {
			t.Fatal("corpus not sorted hardest first")
		}
		prev = c.score()
		if c.Generation < 1 || c.Generation > opt.Generations {
			t.Fatalf("%s: generation %d out of range", c.Name, c.Generation)
		}
	}
}

// TestSearchTopN trims the corpus but not the evaluation accounting.
func TestSearchTopN(t *testing.T) {
	opt := testOptions()
	opt.TopN = 3
	res, _, _ := runSearch(t, fakeEngine(t, 4), opt)
	if len(res.Corpus) != 3 {
		t.Fatalf("corpus %d, want 3", len(res.Corpus))
	}
	if res.Evaluated <= 3 || res.Runs == 0 {
		t.Fatalf("accounting lost under TopN: evaluated %d runs %d", res.Evaluated, res.Runs)
	}
}

// TestSearchOptionsValidate: negatives and unknown families are
// rejected before any simulation.
func TestSearchOptionsValidate(t *testing.T) {
	cases := []Options{
		{Generations: -1},
		{Population: -2},
		{Seeds: -1},
		{TopN: -5},
		{FPRGrid: []float64{0}},
		{FPRGrid: []float64{-3}},
		{Families: []scenario.Family{"no-such-family"}},
	}
	for _, opt := range cases {
		if _, err := Search(context.Background(), fakeEngine(t, 1), opt); err == nil {
			t.Fatalf("options %+v accepted, want error", opt)
		}
	}
}

// TestSearchCorpusRoundTrip: WriteCorpus is lossless.
func TestSearchCorpusRoundTrip(t *testing.T) {
	opt := testOptions()
	opt.TopN = 4
	res, _, corpus := runSearch(t, fakeEngine(t, 4), opt)
	back := new(Result)
	if err := json.Unmarshal(corpus, back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Fatal("corpus did not round-trip")
	}
	if len(back.Corpus) != 4 {
		t.Fatalf("corpus %d, want 4", len(back.Corpus))
	}
	for _, c := range back.Corpus {
		if c.MRFString() == "" {
			t.Fatal("empty MRF rendering")
		}
	}
}

// TestSearchWarmStoreRerunZeroFresh: a second search with the same
// options against the store the first one filled answers every point
// from the manifest — zero fresh simulations — and reproduces the
// corpus byte for byte. Runs the real simulator on a tiny budget.
func TestSearchWarmStoreRerunZeroFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	dir := filepath.Join(t.TempDir(), "store")
	opt := Options{
		Families:    []scenario.Family{scenario.FamilyFollowing},
		Seed:        9,
		Generations: 2,
		Population:  3,
		Seeds:       1,
		FPRGrid:     []float64{5, 30},
	}
	run := func() (stats engine.Stats, corpus []byte) {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		eng := engine.New(engine.Options{Store: st})
		defer func() { eng.Close(); st.Close() }()
		res, err := Search(context.Background(), eng, opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteCorpus(&buf, res); err != nil {
			t.Fatal(err)
		}
		return eng.Stats(), buf.Bytes()
	}
	cold, corpus1 := run()
	if cold.Executed == 0 {
		t.Fatal("cold search simulated nothing")
	}
	warm, corpus2 := run()
	if warm.Executed != 0 {
		t.Fatalf("warm rerun executed %d fresh simulations, want 0 (stats %+v)", warm.Executed, warm)
	}
	if warm.DiskHits == 0 {
		t.Fatal("warm rerun did not touch the manifest")
	}
	if !bytes.Equal(corpus1, corpus2) {
		t.Fatal("warm rerun corpus differs from cold corpus")
	}
}
