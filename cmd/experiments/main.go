// Command experiments regenerates the paper's tables and figures:
//
//	experiments -exp table1              Table 1 (MRF + offline estimates per scenario)
//	experiments -exp fig1                Figure 1 (perception TOPS demand vs SoCs)
//	experiments -exp fig4,fig5,fig6      per-camera latency series figures
//	experiments -exp fig7                post-deployment online estimates
//	experiments -exp fig8                velocity sensitivity grids (sn = 30, 100)
//	experiments -exp headline            closed-loop Zhuyi controller vs 30-FPR baseline
//	experiments -exp corpus -corpus 50   MRF distribution over a generated scenario corpus
//	experiments -exp hardest             adversarial search corpus vs blind generation
//	experiments -exp all                 everything (except hardest; run it explicitly)
//
// Table 1 with the full protocol (-seeds 10) takes a few minutes; use
// -seeds 3 for a quick pass. The corpus sweep generates -corpus
// scenarios from seed -corpusseed and can additionally include
// registered scenarios via -tags (e.g. -tags table1 or -tags variant).
//
// Every experiment runs on one engine, and the invocation ends with its
// fresh/disk/memory stats line. With -store DIR the engine gains a
// persistent tier backed by the content-addressed campaign store:
// points archived by an earlier invocation (or by `zhuyi record`) load
// from disk instead of simulating and fresh runs are archived back, so
// a warm second `-exp table1,fig4,fig5,fig6` run performs zero fresh
// simulations.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/profiling"
	"repro/internal/scenario"
	"repro/internal/search"
	"repro/internal/store"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args and writes every selected
// experiment's output, then the engine's closing stats line, to w. The
// reproduction golden test calls it exactly as main does.
func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	var (
		exp         = fs.String("exp", "all", "comma-separated experiments: table1,fig1,fig4,fig5,fig6,fig7,fig8,headline,ablations,corpus,hardest,all")
		seeds       = fs.Int("seeds", 10, "seeded runs per configuration (Table 1, corpus)")
		workers     = fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		csvDir      = fs.String("csv", "", "also write CSV artifacts into this directory")
		corpusN     = fs.Int("corpus", 20, "corpus sweep: number of generated scenarios")
		corpusSeed  = fs.Int64("corpusseed", 1, "corpus sweep: generator seed")
		tags        = fs.String("tags", "", "corpus sweep: also include registered scenarios with these comma-separated tags")
		record      = fs.String("record", "summary", "corpus sweep: trace recording level of generated members (full, summary, off)")
		storeDir    = fs.String("store", "", "persistent run store directory: archived points load from disk instead of simulating, fresh runs are archived back")
		hardestN    = fs.Int("hardest", 100, "hardest experiment: corpus size on both sides (search top-N and blind baseline)")
		hardestSeed = fs.Int64("hardestseed", 1, "hardest experiment: search and blind-generator seed")
		hardestJSON = fs.String("hardestjson", "", "hardest experiment: also write the comparison artifact (BENCH_hardest.json format) to this file")
	)
	prof := profiling.Register(fs)
	fs.Parse(args)

	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer stopProf()

	// One engine for the whole invocation: every experiment runs on its
	// pool, and later experiments reuse earlier experiments' runs (the
	// Table-1 sweep caches the points the baselines and figures
	// re-visit). With -store, the engine gains a persistent tier: a
	// second identical invocation replays from disk and memory,
	// simulating nothing (the closing stats line shows the split).
	opts := engine.Options{Workers: *workers}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			return err
		}
		defer st.Close()
		opts.Store = st
	}
	eng := engine.New(opts)
	defer func() {
		eng.Close() // stops the workers before the store closes
		s := eng.Stats()
		fmt.Fprintf(w, "# engine: %d fresh simulations, %d disk hits, %d memory hits, %d archived, %d failures, %d store errors\n",
			s.Executed, s.DiskHits, s.CacheHits, s.Archived, s.Failures, s.StoreErrors)
	}()
	ctx := context.Background()

	writeCSV := func(name string, fn func(io.Writer) error) error {
		if *csvDir == "" {
			return nil
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return fn(f)
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]

	// step runs one selected experiment; after the first failure the
	// rest are skipped and run returns that error.
	step := func(name string, fn func() error) {
		if err != nil || (!all && !want[name]) {
			return
		}
		fmt.Fprintf(w, "==== %s ====\n", name)
		if err = fn(); err != nil {
			err = fmt.Errorf("%s: %w", name, err)
			return
		}
		fmt.Fprintln(w)
	}

	step("fig1", func() error {
		experiments.WriteFigure1(w, experiments.Figure1())
		return nil
	})
	step("table1", func() error {
		rows, err := experiments.Table1(ctx, eng, experiments.Options{Seeds: *seeds})
		if err != nil {
			return err
		}
		experiments.WriteTable1(w, rows, nil)
		fmt.Fprintf(w, "# max resource fraction: %.2f (paper: 0.36)\n", experiments.MaxFraction(rows))
		for _, v := range experiments.ValidateTable1(rows) {
			fmt.Fprintf(w, "# conservatism note: %s\n", v)
		}
		return writeCSV("table1.csv", func(w io.Writer) error {
			return experiments.Table1CSV(w, rows, nil)
		})
	})
	for i, sc := range []string{scenario.CutOutFast, scenario.ChallengingCutInCurved, scenario.CutIn} {
		fig := fmt.Sprintf("fig%d", i+4)
		step(fig, func() error {
			series, err := experiments.CameraLatencyFigure(ctx, eng, sc, 30, 1)
			if err != nil {
				return err
			}
			experiments.WriteFigureSeries(w, series)
			return writeCSV(fig+".csv", func(w io.Writer) error { return experiments.SeriesCSV(w, series) })
		})
	}
	step("fig7", func() error {
		s, err := experiments.Figure7(ctx, eng, 30, 1)
		if err != nil {
			return err
		}
		experiments.WriteOnlineSeries(w, s)
		return writeCSV("fig7.csv", func(w io.Writer) error { return experiments.OnlineCSV(w, s) })
	})
	step("fig8", func() error {
		for _, sn := range []float64{30, 100} {
			res := experiments.Figure8(sn)
			experiments.WriteSweep(w, res)
			if err := writeCSV(fmt.Sprintf("fig8_sn%.0f.csv", sn), func(w io.Writer) error {
				return experiments.SweepCSV(w, res)
			}); err != nil {
				return err
			}
		}
		return nil
	})
	step("headline", func() error {
		rows, err := experiments.Headline(ctx, eng, 1)
		if err != nil {
			return err
		}
		experiments.WriteHeadline(w, rows)
		fmt.Fprintf(w, "# all Zhuyi-controlled runs safe: %v; max frame fraction %.2f\n",
			experiments.AllSafe(rows), experiments.MaxFrameFraction(rows))
		return writeCSV("headline.csv", func(w io.Writer) error { return experiments.HeadlineCSV(w, rows) })
	})
	step("baselines", func() error {
		rows, err := experiments.BaselineComparison(ctx, eng, experiments.Options{Seeds: *seeds})
		if err != nil {
			return err
		}
		experiments.WriteBaselineComparison(w, rows, 12, *seeds)
		fmt.Fprintln(w)
		experiments.WriteRSSComparison(w, experiments.RSSComparison())
		return nil
	})
	step("corpus", func() error {
		var fams []string
		if *tags != "" {
			for _, t := range strings.Split(*tags, ",") {
				fams = append(fams, strings.TrimSpace(t))
			}
		}
		level, err := trace.ParseLevel(*record)
		if err != nil {
			return err
		}
		res, err := experiments.CorpusSweep(ctx, eng, experiments.CorpusOptions{
			N:       *corpusN,
			GenSeed: *corpusSeed,
			Tags:    fams,
			Seeds:   *seeds,
			Record:  level,
		})
		if err != nil {
			return err
		}
		experiments.WriteCorpus(w, res)
		return writeCSV("corpus.csv", func(w io.Writer) error { return experiments.CorpusCSV(w, res) })
	})
	// Deliberately excluded from -exp all: the search side alone scores
	// hundreds of genomes, and the blind baseline doubles the corpus.
	if want["hardest"] {
		step("hardest", func() error {
			res, err := experiments.HardestCorpus(ctx, eng, experiments.HardestOptions{
				TopN:  *hardestN,
				Seed:  *hardestSeed,
				Seeds: *seeds,
				Progress: func(g search.GenerationSummary) {
					fmt.Fprintf(w, "# %s gen %d: best %s\n", g.Family, g.Generation, g.BestMRFString())
				},
			})
			if err != nil {
				return err
			}
			experiments.WriteHardest(w, res)
			if *hardestJSON != "" {
				return writeHardestJSON(*hardestJSON, res)
			}
			return nil
		})
	}
	step("ablations", func() error {
		if rows, err := experiments.ConfirmationDepthAblation(ctx, eng, nil); err != nil {
			return err
		} else {
			experiments.WriteAblation(w, "confirmation depth K (cut-out-fast trace)", rows)
		}
		if rows, err := experiments.AlphaModelAblation(ctx, eng); err != nil {
			return err
		} else {
			experiments.WriteAblation(w, "confirmation-delay alpha model", rows)
		}
		if rows, err := experiments.SearchModeAblation(ctx, eng); err != nil {
			return err
		} else {
			experiments.WriteAblation(w, "Eq.-3 accelerated vs naive search", rows)
		}
		if rows, err := experiments.UncertaintyAblation(ctx, eng, nil); err != nil {
			return err
		} else {
			experiments.WriteAblation(w, "perception uncertainty (position sigma)", rows)
		}
		rows, err := experiments.AggregationAblation(ctx, eng)
		if err != nil {
			return err
		}
		experiments.WriteAggregationAblation(w, rows)
		return nil
	})
	return err
}

// writeHardestJSON commits the hardest-corpus comparison in the
// repo's BENCH_*.json artifact format.
func writeHardestJSON(path string, res *experiments.HardestResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		GeneratedBy string `json:"generated_by"`
		*experiments.HardestResult
	}{
		GeneratedBy:   "experiments -exp hardest -hardestjson (adversarial search corpus vs blind generation; deterministic per seed and budget)",
		HardestResult: res,
	})
}
