package server

// POST /v1/search: the adversarial scenario search over HTTP. Like
// the campaign endpoint, the response is a flushed NDJSON stream —
// one generation summary per (family, generation) as the search
// progresses, then exactly one trailer line carrying the hardest-N
// corpus (or the error that stopped the search). The search runs on
// the service's shared engine, so a warm store answers every rescore
// from the manifest and /v1/stats proves it (executed stays 0).

import (
	"encoding/json"
	"net/http"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/search"
)

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad search request: %v", err)
		return
	}
	var fams []scenario.Family
	for _, f := range req.Families {
		fams = append(fams, scenario.Family(f))
	}
	opt := search.Options{
		Families:    fams,
		Seed:        req.Seed,
		Generations: req.Generations,
		Population:  req.Population,
		Seeds:       req.Seeds,
		TopN:        req.TopN,
		FPRGrid:     req.FPRGrid,
	}
	// Reject bad budgets and unknown families before streaming: once
	// the NDJSON flow starts, errors can only ride in the trailer.
	if err := opt.Validate(); err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if nfam, gens, pop, seeds, grid := searchBudget(req); !WithinPoints(DefaultMaxCampaignPoints, nfam, gens, pop, seeds, grid) {
		WriteError(w, http.StatusBadRequest,
			"search budget of %d families x %d generations x %d candidates x %d seeds x %d rates exceeds the %d-point limit",
			nfam, gens, pop, seeds, grid, DefaultMaxCampaignPoints)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(line SearchLine) {
		_ = enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
	opt.Progress = func(g search.GenerationSummary) {
		emit(SearchLine{Generation: &g})
	}
	res, err := search.Search(r.Context(), s.eng, opt)
	if err != nil {
		emit(SearchLine{Error: err.Error()})
		return
	}
	s.points.Add(int64(res.Runs))
	emit(SearchLine{Corpus: res})
}

// searchBudget resolves the factors of a search request's worst-case
// engine points (every candidate fresh, every rate of the grid probed):
// families x generations x population x seeds x rates.
func searchBudget(req SearchRequest) (nfam, gens, pop, seeds, grid int) {
	gens, pop, seeds = req.Generations, req.Population, req.Seeds
	if gens == 0 {
		gens = search.DefaultGenerations
	}
	if pop == 0 {
		pop = search.DefaultPopulation
	}
	if seeds == 0 {
		seeds = search.DefaultSeeds
	}
	nfam = len(req.Families)
	if nfam == 0 {
		nfam = len(scenario.Families())
	}
	grid = len(req.FPRGrid)
	if grid == 0 {
		grid = len(metrics.DefaultFPRGrid())
	}
	return nfam, gens, pop, seeds, grid
}
