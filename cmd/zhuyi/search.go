package main

// The adversarial-search subcommand: evolve each spec family toward
// its hardest (highest-MRF) corpus through the cached run engine,
// streaming one NDJSON summary per (family, generation) on stdout and
// writing the hardest-N corpus as registry-loadable specs. The whole
// run is deterministic for a given (-families, -seed, budget) — the
// corpus file is bitwise-identical across runs and -workers values —
// and a rerun against a warm -store schedules zero fresh simulations.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/search"
	"repro/internal/trace"
)

func cmdScenariosSearch(args []string) error {
	fs := flag.NewFlagSet("scenarios search", flag.ExitOnError)
	families := fs.String("families", "", "comma-separated families to evolve (default: all of "+familyList()+")")
	seed := fs.Int64("seed", 1, "search seed (same seed + budget reproduces the corpus bit for bit)")
	generations := fs.Int("generations", search.DefaultGenerations, "evaluate/breed rounds per family")
	population := fs.Int("population", search.DefaultPopulation, "population size per family")
	top := fs.Int("top", 0, "keep only the hardest N candidates in the corpus (0 = all evaluated)")
	mrfSeeds := fs.Int("mrf-seeds", search.DefaultSeeds, "seeded runs per rate when scoring a candidate")
	fprs := fs.String("fprs", "", "comma-separated candidate rate grid (default: the Table-1 grid)")
	storeDir := fs.String("store", "", "persistent run store: archived points answer from the manifest, fresh runs are archived")
	workers := fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	out := fs.String("out", "", "write the corpus JSON to this file (default: stdout, after the NDJSON progress)")
	fs.Parse(args)

	if *generations <= 0 {
		return fmt.Errorf("scenarios search: -generations must be positive, got %d", *generations)
	}
	if *population <= 0 {
		return fmt.Errorf("scenarios search: -population must be positive, got %d", *population)
	}
	if *mrfSeeds <= 0 {
		return fmt.Errorf("scenarios search: -mrf-seeds must be positive, got %d", *mrfSeeds)
	}
	if *top < 0 {
		return fmt.Errorf("scenarios search: -top must be non-negative, got %d", *top)
	}
	var fams []scenario.Family
	for _, f := range splitList(*families) {
		fams = append(fams, scenario.Family(f))
	}
	grid, err := parseFPRs(*fprs)
	if err != nil {
		return err
	}
	// Scoring reads nothing but collision outcomes: summary level
	// (store-archived points stay full, the engine upgrades them).
	opts, closeStore, err := engineOptions(*storeDir, *workers, trace.LevelSummary)
	if err != nil {
		return err
	}
	defer closeStore()
	eng := engine.New(opts)
	defer eng.Close()

	progress := json.NewEncoder(os.Stdout)
	res, err := search.Search(context.Background(), eng, search.Options{
		Families:    fams,
		Seed:        *seed,
		Generations: *generations,
		Population:  *population,
		Seeds:       *mrfSeeds,
		TopN:        *top,
		FPRGrid:     grid,
		Progress:    func(g search.GenerationSummary) { progress.Encode(g) },
	})
	if err != nil {
		return err
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := search.WriteCorpus(w, res); err != nil {
		return err
	}
	s := eng.Stats()
	fmt.Fprintf(os.Stderr, "# search: %d candidates evaluated, %d points; engine: %d fresh simulations, %d disk hits, %d memory hits, %d archived\n",
		res.Evaluated, res.Runs, s.Executed, s.DiskHits, s.CacheHits, s.Archived)
	return nil
}
