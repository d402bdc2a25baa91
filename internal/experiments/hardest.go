package experiments

// The hardest-corpus experiment: does the adversarial search
// (internal/search) actually find harder scenarios than blind
// generation? It runs both on one engine and compares the MRF
// distributions of the search's hardest-N corpus against N
// blind-generated scenarios from the same families — the committed
// BENCH_hardest.json artifact pins the answer.

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/search"
	"repro/internal/trace"
)

// HardestOptions budgets the hardest-corpus experiment: an adversarial
// search over the spec families plus a blind generator baseline of the
// same size, scored on the same engine with the same MRF protocol.
type HardestOptions struct {
	// TopN sizes both corpora: the search's hardest-N and the blind
	// baseline's N generated scenarios (default 100).
	TopN int
	// Seed drives the search and the blind generator; the experiment
	// is deterministic per (seed, budget).
	Seed int64
	// Families restricts both sides; empty means every family.
	Families []scenario.Family
	// Generations and Population budget the evolutionary search
	// (defaults: 4 generations of 16 per family — wide enough that
	// the default family set over-fills a hardest-100 corpus).
	Generations int
	Population  int
	// Seeds is the number of runs per (scenario, rate) MRF point
	// (default: the search default, 3).
	Seeds int
	// FPRGrid is the tested rate grid (default: the Table-1 grid).
	FPRGrid []float64
	// Progress, when non-nil, receives the search's per-generation
	// summaries as they happen.
	Progress func(search.GenerationSummary)
}

func (o HardestOptions) withDefaults() HardestOptions {
	if o.TopN <= 0 {
		o.TopN = 100
	}
	if o.Generations <= 0 {
		o.Generations = 4
	}
	if o.Population <= 0 {
		o.Population = 16
	}
	if o.Seeds <= 0 {
		o.Seeds = search.DefaultSeeds
	}
	if len(o.FPRGrid) == 0 {
		o.FPRGrid = metrics.DefaultFPRGrid()
	}
	return o
}

// MRFPoint is a JSON-safe MRF measurement: Value carries the finite
// rate, the flags encode the off-grid ends ("<1" and "+Inf" — JSON has
// no infinities), and Label is the human rendering of all three.
type MRFPoint struct {
	Value     float64 `json:"value"`
	BelowGrid bool    `json:"below_grid,omitempty"`
	AboveGrid bool    `json:"above_grid,omitempty"`
	Label     string  `json:"label"`
}

// rank orders MRFPoints by hardness: below-grid before every finite
// rate, above-grid after.
func (p MRFPoint) rank() float64 {
	switch {
	case p.BelowGrid:
		return -1
	case p.AboveGrid:
		return math.Inf(1)
	default:
		return p.Value
	}
}

// Harder reports whether p demands strictly more perception rate than q.
func (p MRFPoint) Harder(q MRFPoint) bool { return p.rank() > q.rank() }

func mrfPointFromMetrics(m metrics.MRF) MRFPoint {
	return MRFPoint{
		Value:     boundedValue(m.Value),
		BelowGrid: m.BelowGrid(),
		AboveGrid: math.IsInf(m.Value, 1),
		Label:     m.String(),
	}
}

func mrfPointFromCandidate(c search.Candidate) MRFPoint {
	return MRFPoint{Value: c.MRF, BelowGrid: c.BelowGrid, AboveGrid: c.AboveGrid, Label: c.MRFString()}
}

// boundedValue keeps +Inf (the above-grid encoding of metrics.MRF) out
// of JSON-bound values; the AboveGrid flag carries it instead.
func boundedValue(v float64) float64 {
	if math.IsInf(v, 1) {
		return 0
	}
	return v
}

// HardestRow is one corpus member of the committed artifact.
type HardestRow struct {
	Name       string   `json:"name"`
	Family     string   `json:"family"`
	Generation int      `json:"generation,omitempty"`
	MRF        MRFPoint `json:"mrf"`
}

// HardestResult compares the search's hardest-N corpus against the
// blind generator baseline. Medians use the lower-median convention
// (element (n-1)/2 of the hardness-sorted list), so they are exact
// corpus members, not interpolations.
type HardestResult struct {
	TopN int `json:"top_n"`
	// Evaluated counts distinct genomes the search scored; Runs the
	// engine points both sides scheduled (cache hits included).
	Evaluated int `json:"evaluated"`
	Runs      int `json:"runs"`
	// SearchMedian and BlindMedian are the corpora's median MRFs;
	// SearchHarder is the experiment's verdict: the search median
	// demands strictly more perception rate than blind generation's.
	SearchMedian MRFPoint `json:"search_median"`
	BlindMedian  MRFPoint `json:"blind_median"`
	SearchHarder bool     `json:"search_median_strictly_harder"`
	// SearchDist and BlindDist are the MRF distributions (label →
	// scenario count) of the two corpora.
	SearchDist map[string]int `json:"search_dist"`
	BlindDist  map[string]int `json:"blind_dist"`
	// SearchRows lists the hardest-N corpus, hardest first. The full
	// registrable specs live in the search corpus format
	// (`zhuyi scenarios search -out`), not here.
	SearchRows []HardestRow `json:"search_rows"`
}

// HardestCorpus runs the adversarial search and the blind generator
// baseline on eng and compares their MRF distributions. Both sides
// are deterministic per options; on an engine with a warm persistent
// store the whole experiment rescores without a fresh simulation.
func HardestCorpus(ctx context.Context, eng *engine.Engine, opt HardestOptions) (*HardestResult, error) {
	opt = opt.withDefaults()

	sres, err := search.Search(ctx, eng, search.Options{
		Families:    opt.Families,
		Seed:        opt.Seed,
		Generations: opt.Generations,
		Population:  opt.Population,
		Seeds:       opt.Seeds,
		TopN:        opt.TopN,
		FPRGrid:     opt.FPRGrid,
		Progress:    opt.Progress,
	})
	if err != nil {
		return nil, err
	}

	blind, err := CorpusSweep(ctx, eng, CorpusOptions{
		N:        opt.TopN,
		GenSeed:  opt.Seed,
		Families: opt.Families,
		Seeds:    opt.Seeds,
		FPRGrid:  opt.FPRGrid,
		Record:   trace.LevelSummary,
	})
	if err != nil {
		return nil, err
	}

	res := &HardestResult{
		TopN:       opt.TopN,
		Evaluated:  sres.Evaluated,
		Runs:       sres.Runs + blind.Runs,
		SearchDist: make(map[string]int),
		BlindDist:  make(map[string]int),
	}
	var searched, blinds []MRFPoint
	for _, c := range sres.Corpus {
		p := mrfPointFromCandidate(c)
		searched = append(searched, p)
		res.SearchDist[p.Label]++
		res.SearchRows = append(res.SearchRows, HardestRow{
			Name: c.Name, Family: c.Family, Generation: c.Generation, MRF: p,
		})
	}
	for _, row := range blind.Rows {
		p := mrfPointFromMetrics(row.MRF)
		blinds = append(blinds, p)
		res.BlindDist[p.Label]++
	}
	res.SearchMedian = medianPoint(searched)
	res.BlindMedian = medianPoint(blinds)
	res.SearchHarder = res.SearchMedian.Harder(res.BlindMedian)
	return res, nil
}

// medianPoint returns the lower median by hardness (zero value for an
// empty corpus).
func medianPoint(pts []MRFPoint) MRFPoint {
	if len(pts) == 0 {
		return MRFPoint{}
	}
	sorted := append([]MRFPoint(nil), pts...)
	sort.SliceStable(sorted, func(i, k int) bool { return sorted[i].rank() < sorted[k].rank() })
	return sorted[(len(sorted)-1)/2]
}

// WriteHardest renders the comparison: the two distributions side by
// side, then the median verdict.
func WriteHardest(w io.Writer, res *HardestResult) {
	union := make(map[string]int)
	for l := range res.SearchDist {
		union[l]++
	}
	for l := range res.BlindDist {
		union[l]++
	}
	fmt.Fprintf(w, "%-8s %8s %8s\n", "MRF", "search", "blind")
	for _, l := range distLabels(union) {
		fmt.Fprintf(w, "%-8s %8d %8d\n", l, res.SearchDist[l], res.BlindDist[l])
	}
	verdict := "NOT harder — search failed to beat blind generation"
	if res.SearchHarder {
		verdict = "strictly harder than blind generation"
	}
	fmt.Fprintf(w, "# hardest-%d median MRF %s vs blind median %s: %s\n",
		res.TopN, res.SearchMedian.Label, res.BlindMedian.Label, verdict)
	fmt.Fprintf(w, "# search evaluated %d genomes; %d engine points total (both sides, cache hits included)\n",
		res.Evaluated, res.Runs)
}
