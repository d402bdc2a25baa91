// Package search is the adversarial scenario-search layer: a seeded
// evolutionary/bisection optimizer over scenario.Spec jitter space
// that breeds each spec family toward its highest minimum-required
// frame rate (MRF). Populations seed from the procedural Generator,
// candidates are scored by the adaptive MRF search on the caller's
// run engine — so warm manifest reads re-score populations without
// simulating — and each generation keeps the hardest half (elitism,
// which makes the per-generation best monotone) while breeding the
// rest by Val-range bisection (Mutate) and gene exchange (Crossover).
//
// The whole search is deterministic given (families, seed, budget):
// candidates are content-addressed by GenomeName, evaluation results
// are gathered by index, and all randomness flows from per-family
// seeded streams consumed only between evaluation barriers — so the
// corpus is bitwise-identical across runs and engine worker counts,
// and a rerun against a warm store performs zero fresh simulations.
package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/scenario"
)

// Default search budget: generations per family, population per
// family, and MRF seeds per candidate, used when Options leaves the
// corresponding field zero.
const (
	DefaultGenerations = 4
	DefaultPopulation  = 8
	DefaultSeeds       = 3
)

// breedAttempts bounds how many breeding draws are spent per child
// slot before the population is left short for a generation.
const breedAttempts = 12

// Options configures Search. The zero value searches every family
// with the default budget.
type Options struct {
	// Families restricts the search; empty means every spec family.
	// Each family evolves its own independent population.
	Families []scenario.Family
	// Seed drives every random choice. The same (Families, Seed,
	// Generations, Population, Seeds, FPRGrid) is guaranteed to
	// reproduce the same corpus bit for bit.
	Seed int64
	// Generations is the number of evaluate→breed rounds per family
	// (default DefaultGenerations). Negative is an error.
	Generations int
	// Population is the per-family population size (default
	// DefaultPopulation). Negative is an error.
	Population int
	// Seeds is the number of simulation seeds per MRF evaluation
	// (default DefaultSeeds). Negative is an error.
	Seeds int
	// TopN trims the final corpus to the hardest N candidates; zero
	// keeps every evaluated candidate. Negative is an error.
	TopN int
	// FPRGrid is the candidate rate grid for the MRF search (default
	// metrics.DefaultFPRGrid). Sorted and deduplicated before use.
	FPRGrid []float64
	// Progress, when set, receives one summary per (family,
	// generation), in order, from the searching goroutine.
	Progress func(GenerationSummary)
}

// withDefaults resolves zero fields.
func (o Options) withDefaults() Options {
	if len(o.Families) == 0 {
		o.Families = scenario.Families()
	}
	if o.Generations == 0 {
		o.Generations = DefaultGenerations
	}
	if o.Population == 0 {
		o.Population = DefaultPopulation
	}
	if o.Seeds == 0 {
		o.Seeds = DefaultSeeds
	}
	if len(o.FPRGrid) == 0 {
		o.FPRGrid = metrics.DefaultFPRGrid()
	}
	grid := append([]float64(nil), o.FPRGrid...)
	sort.Float64s(grid)
	out := grid[:0]
	for i, f := range grid {
		if i == 0 || f != grid[i-1] {
			out = append(out, f)
		}
	}
	o.FPRGrid = out
	return o
}

// Validate rejects impossible budgets and unknown families before any
// simulation is scheduled. Zero counts mean "use the default"; only
// negatives are errors here — CLI and HTTP layers reject explicit
// zeros themselves, where "0" is a user mistake rather than a
// zero-value default.
func (o Options) Validate() error {
	if o.Generations < 0 {
		return fmt.Errorf("search: negative generations %d", o.Generations)
	}
	if o.Population < 0 {
		return fmt.Errorf("search: negative population %d", o.Population)
	}
	if o.Seeds < 0 {
		return fmt.Errorf("search: negative seeds %d", o.Seeds)
	}
	if o.TopN < 0 {
		return fmt.Errorf("search: negative top-n %d", o.TopN)
	}
	for _, f := range o.FPRGrid {
		if f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("search: invalid rate %v in grid", f)
		}
	}
	return (scenario.GenOptions{Families: o.Families}).Validate()
}

// Candidate is one evaluated genome: a fully concrete, registrable
// scenario spec plus its MRF score. The spec's Description is
// inherited from its generator ancestor (it describes the family
// archetype; the genome's exact ranges live in the spec itself).
type Candidate struct {
	// Name is the content-addressed genome name (GenomeName).
	Name string `json:"name"`
	// Family is the spec family the candidate evolved in.
	Family string `json:"family"`
	// Generation is the generation the candidate was first evaluated
	// in (1-based).
	Generation int `json:"generation"`
	// MRF is the scored minimum required FPR. Zero with BelowGrid set
	// means safe at every tested rate; zero with AboveGrid set means
	// colliding at every tested rate (the +Inf score — kept off the
	// wire because JSON has no infinities).
	MRF float64 `json:"mrf"`
	// BelowGrid mirrors metrics.MRF.BelowGrid.
	BelowGrid bool `json:"below_grid,omitempty"`
	// AboveGrid marks candidates unsafe at every rate in the grid.
	AboveGrid bool `json:"above_grid,omitempty"`
	// Runs is the number of engine points the MRF search scheduled for
	// this candidate (cache hits included).
	Runs int `json:"runs"`
	// Spec is the candidate genome itself, registry-loadable as-is.
	Spec scenario.Spec `json:"spec"`
}

// score is the sortable hardness of a candidate: MRF, with above-grid
// encoded as +Inf and below-grid as 0.
func (c Candidate) score() float64 {
	if c.AboveGrid {
		return math.Inf(1)
	}
	return c.MRF
}

// MRFString renders the candidate's score the way Table 1 does.
func (c Candidate) MRFString() string {
	switch {
	case c.AboveGrid:
		return "+Inf"
	case c.BelowGrid:
		return "<1"
	default:
		return fmt.Sprintf("%g", c.MRF)
	}
}

// GenerationSummary is the per-(family, generation) progress record
// streamed over NDJSON by the CLI and /v1/search.
type GenerationSummary struct {
	// Family being evolved.
	Family string `json:"family"`
	// Generation is 1-based.
	Generation int `json:"generation"`
	// Population is the population size after this generation's
	// evaluation (breeding can leave it short when duplicates win).
	Population int `json:"population"`
	// Evaluated counts fresh candidate evaluations this generation
	// (elites keep their cached scores).
	Evaluated int `json:"evaluated"`
	// Best* describe the hardest candidate in the population, which is
	// non-decreasing across generations (elitism).
	BestName      string  `json:"best_name"`
	BestMRF       float64 `json:"best_mrf"`
	BestBelowGrid bool    `json:"best_below_grid,omitempty"`
	BestAboveGrid bool    `json:"best_above_grid,omitempty"`
}

// BestMRFString renders the generation's best score the way Table 1
// does.
func (g GenerationSummary) BestMRFString() string {
	switch {
	case g.BestAboveGrid:
		return "+Inf"
	case g.BestBelowGrid:
		return "<1"
	default:
		return fmt.Sprintf("%g", g.BestMRF)
	}
}

// Result is the search outcome and the on-disk corpus format: every
// field needed to reproduce the run plus the hardest-N candidates.
type Result struct {
	// The resolved budget that produced the corpus.
	Seed        int64     `json:"seed"`
	Families    []string  `json:"families"`
	Generations int       `json:"generations"`
	Population  int       `json:"population"`
	Seeds       int       `json:"seeds"`
	FPRGrid     []float64 `json:"fpr_grid"`
	// Evaluated is the number of distinct genomes scored; Runs the
	// engine points scheduled for them (cache hits included).
	Evaluated int `json:"evaluated"`
	Runs      int `json:"runs"`
	// Corpus holds the hardest-N candidates, hardest first (ties by
	// name).
	Corpus []Candidate `json:"corpus"`
}

// member is a population slot: a candidate and whether it has been
// scored yet.
type member struct {
	cand   Candidate
	scored bool
}

// Search runs the evolutionary MRF search and returns the hardest-N
// corpus, scoring candidates on eng. Families evolve sequentially (each
// from its own seeded stream); within a generation all unscored
// candidates evaluate concurrently through the engine. A store-backed
// engine content-addresses every evaluated candidate, so warm reruns
// simulate nothing. See the package comment for the determinism
// contract.
func Search(ctx context.Context, eng *engine.Engine, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	res := &Result{
		Seed:        opt.Seed,
		Generations: opt.Generations,
		Population:  opt.Population,
		Seeds:       opt.Seeds,
		FPRGrid:     opt.FPRGrid,
	}
	for _, f := range opt.Families {
		res.Families = append(res.Families, string(f))
	}
	var all []Candidate
	for _, family := range opt.Families {
		evaluated, err := searchFamily(ctx, eng, opt, family, res)
		if err != nil {
			return nil, err
		}
		all = append(all, evaluated...)
	}
	sortCandidates(all)
	res.Evaluated = len(all)
	for _, c := range all {
		res.Runs += c.Runs
	}
	if opt.TopN > 0 && opt.TopN < len(all) {
		all = all[:opt.TopN]
	}
	res.Corpus = all
	return res, nil
}

// searchFamily evolves one family's population and returns every
// candidate it evaluated.
func searchFamily(ctx context.Context, eng *engine.Engine, opt Options, family scenario.Family, res *Result) ([]Candidate, error) {
	rng := rand.New(rand.NewSource(familySeed(opt.Seed, family)))
	gen := scenario.NewGenerator(scenario.GenOptions{
		Seed:     familySeed(opt.Seed, family),
		Families: []scenario.Family{family},
		Prefix:   "seedpop",
	})
	seen := map[string]bool{}
	var pop []*member
	for len(pop) < opt.Population {
		sp := finalize(family, gen.Next())
		if seen[sp.Name] {
			continue // astronomically unlikely, but keep names unique
		}
		seen[sp.Name] = true
		pop = append(pop, &member{cand: Candidate{
			Name: sp.Name, Family: string(family), Spec: sp,
		}})
	}

	var evaluated []Candidate
	for g := 1; g <= opt.Generations; g++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fresh, err := evaluate(ctx, eng, opt, pop, g)
		if err != nil {
			return nil, err
		}
		evaluated = append(evaluated, fresh...)
		sortMembers(pop)
		if opt.Progress != nil {
			best := pop[0].cand
			opt.Progress(GenerationSummary{
				Family:        string(family),
				Generation:    g,
				Population:    len(pop),
				Evaluated:     len(fresh),
				BestName:      best.Name,
				BestMRF:       best.MRF,
				BestBelowGrid: best.BelowGrid,
				BestAboveGrid: best.AboveGrid,
			})
		}
		if g == opt.Generations {
			break
		}
		pop = breed(opt, family, pop, seen, rng)
	}
	return evaluated, nil
}

// evaluate scores every unscored member concurrently through the
// engine, gathering results by index so completion order never leaks
// into the outcome. Returns the freshly evaluated candidates in
// population order.
func evaluate(ctx context.Context, eng *engine.Engine, opt Options, pop []*member, generation int) ([]Candidate, error) {
	var toEval []*member
	for _, m := range pop {
		if !m.scored {
			toEval = append(toEval, m)
		}
	}
	mrfs := make([]metrics.MRF, len(toEval))
	errs := make([]error, len(toEval))
	var wg sync.WaitGroup
	for i, m := range toEval {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			mrfs[i], errs[i] = metrics.FindMRF(ctx, eng, m.cand.Spec.Scenario(), opt.FPRGrid, opt.Seeds)
		}(i, m)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	fresh := make([]Candidate, 0, len(toEval))
	for i, m := range toEval {
		mrf := mrfs[i]
		m.cand.Generation = generation
		m.cand.Runs = mrf.Runs
		m.cand.BelowGrid = mrf.BelowGrid()
		m.cand.AboveGrid = math.IsInf(mrf.Value, 1)
		if m.cand.AboveGrid {
			m.cand.MRF = 0
		} else {
			m.cand.MRF = mrf.Value
		}
		m.scored = true
		fresh = append(fresh, m.cand)
	}
	return fresh, nil
}

// breed builds the next generation: the hardest half survives with
// cached scores (elitism), the rest are children bred by crossover of
// elite pairs or bisection of a single elite. Children that duplicate
// any genome ever seen this search, or fail validity probes, are
// discarded and the draw retried a bounded number of times.
func breed(opt Options, family scenario.Family, pop []*member, seen map[string]bool, rng *rand.Rand) []*member {
	elite := pop[:(len(pop)+1)/2]
	next := make([]*member, 0, opt.Population)
	next = append(next, elite...)
	for len(next) < opt.Population {
		child, ok := breedOne(family, elite, seen, rng)
		if !ok {
			break // jitter space exhausted at this resolution
		}
		next = append(next, &member{cand: child})
	}
	return next
}

// breedOne draws one admissible child from the elites.
func breedOne(family scenario.Family, elite []*member, seen map[string]bool, rng *rand.Rand) (Candidate, bool) {
	for a := 0; a < breedAttempts; a++ {
		i := rng.Intn(len(elite))
		j := rng.Intn(len(elite))
		var sp scenario.Spec
		ok := false
		if i != j {
			sp, ok = Crossover(elite[i].cand.Spec, elite[j].cand.Spec, rng)
		}
		if !ok {
			sp, ok = Mutate(elite[i].cand.Spec, rng)
		}
		if !ok {
			continue
		}
		sp = finalize(family, sp)
		if seen[sp.Name] || !specOK(sp) {
			continue
		}
		seen[sp.Name] = true
		return Candidate{Name: sp.Name, Family: string(family), Spec: sp}, true
	}
	return Candidate{}, false
}

// sortMembers orders a population hardest first, ties by name, so
// elite selection is deterministic.
func sortMembers(pop []*member) {
	sort.Slice(pop, func(i, k int) bool {
		si, sk := pop[i].cand.score(), pop[k].cand.score()
		if si != sk {
			return si > sk
		}
		return pop[i].cand.Name < pop[k].cand.Name
	})
}

// sortCandidates orders the corpus hardest first, ties by name.
func sortCandidates(cs []Candidate) {
	sort.Slice(cs, func(i, k int) bool {
		si, sk := cs[i].score(), cs[k].score()
		if si != sk {
			return si > sk
		}
		return cs[i].Name < cs[k].Name
	})
}
