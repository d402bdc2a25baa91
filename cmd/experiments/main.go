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
	var (
		exp         = flag.String("exp", "all", "comma-separated experiments: table1,fig1,fig4,fig5,fig6,fig7,fig8,headline,ablations,corpus,hardest,all")
		seeds       = flag.Int("seeds", 10, "seeded runs per configuration (Table 1, corpus)")
		workers     = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		csvDir      = flag.String("csv", "", "also write CSV artifacts into this directory")
		corpusN     = flag.Int("corpus", 20, "corpus sweep: number of generated scenarios")
		corpusSeed  = flag.Int64("corpusseed", 1, "corpus sweep: generator seed")
		tags        = flag.String("tags", "", "corpus sweep: also include registered scenarios with these comma-separated tags")
		record      = flag.String("record", "summary", "corpus sweep: trace recording level of generated members (full, summary, off)")
		storeDir    = flag.String("store", "", "persistent run store directory: archived points load from disk instead of simulating, fresh runs are archived back")
		hardestN    = flag.Int("hardest", 100, "hardest experiment: corpus size on both sides (search top-N and blind baseline)")
		hardestSeed = flag.Int64("hardestseed", 1, "hardest experiment: search and blind-generator seed")
		hardestJSON = flag.String("hardestjson", "", "hardest experiment: also write the comparison artifact (BENCH_hardest.json format) to this file")
	)
	prof := profiling.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
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
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer st.Close()
		opts.Store = st
	}
	eng := engine.New(opts)
	defer func() {
		eng.Close() // flushes the archiver before the store closes
		s := eng.Stats()
		fmt.Printf("# engine: %d fresh simulations, %d disk hits, %d memory hits, %d archived, %d failures, %d store errors\n",
			s.Executed, s.DiskHits, s.CacheHits, s.Archived, s.Failures, s.StoreErrors)
	}()
	ctx := context.Background()

	writeCSV := func(name string, fn func(io.Writer) error) {
		if *csvDir == "" {
			return
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := fn(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]

	run := func(name string, fn func() error) {
		if !all && !want[name] {
			return
		}
		fmt.Printf("==== %s ====\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("fig1", func() error {
		experiments.WriteFigure1(os.Stdout, experiments.Figure1())
		return nil
	})
	run("table1", func() error {
		rows, err := experiments.Table1(ctx, eng, experiments.Options{Seeds: *seeds})
		if err != nil {
			return err
		}
		experiments.WriteTable1(os.Stdout, rows, nil)
		fmt.Printf("# max resource fraction: %.2f (paper: 0.36)\n", experiments.MaxFraction(rows))
		for _, v := range experiments.ValidateTable1(rows) {
			fmt.Printf("# conservatism note: %s\n", v)
		}
		writeCSV("table1.csv", func(w io.Writer) error {
			return experiments.Table1CSV(w, rows, nil)
		})
		return nil
	})
	for i, sc := range []string{scenario.CutOutFast, scenario.ChallengingCutInCurved, scenario.CutIn} {
		fig := fmt.Sprintf("fig%d", i+4)
		run(fig, func() error {
			fs, err := experiments.CameraLatencyFigure(ctx, eng, sc, 30, 1)
			if err != nil {
				return err
			}
			experiments.WriteFigureSeries(os.Stdout, fs)
			writeCSV(fig+".csv", func(w io.Writer) error { return experiments.SeriesCSV(w, fs) })
			return nil
		})
	}
	run("fig7", func() error {
		s, err := experiments.Figure7(ctx, eng, 30, 1)
		if err != nil {
			return err
		}
		experiments.WriteOnlineSeries(os.Stdout, s)
		writeCSV("fig7.csv", func(w io.Writer) error { return experiments.OnlineCSV(w, s) })
		return nil
	})
	run("fig8", func() error {
		for _, sn := range []float64{30, 100} {
			res := experiments.Figure8(sn)
			experiments.WriteSweep(os.Stdout, res)
			writeCSV(fmt.Sprintf("fig8_sn%.0f.csv", sn), func(w io.Writer) error {
				return experiments.SweepCSV(w, res)
			})
		}
		return nil
	})
	run("headline", func() error {
		rows, err := experiments.Headline(ctx, eng, 1)
		if err != nil {
			return err
		}
		experiments.WriteHeadline(os.Stdout, rows)
		fmt.Printf("# all Zhuyi-controlled runs safe: %v; max frame fraction %.2f\n",
			experiments.AllSafe(rows), experiments.MaxFrameFraction(rows))
		writeCSV("headline.csv", func(w io.Writer) error { return experiments.HeadlineCSV(w, rows) })
		return nil
	})
	run("baselines", func() error {
		rows, err := experiments.BaselineComparison(ctx, eng, experiments.Options{Seeds: *seeds})
		if err != nil {
			return err
		}
		experiments.WriteBaselineComparison(os.Stdout, rows, 12, *seeds)
		fmt.Println()
		experiments.WriteRSSComparison(os.Stdout, experiments.RSSComparison())
		return nil
	})
	run("corpus", func() error {
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
		experiments.WriteCorpus(os.Stdout, res)
		writeCSV("corpus.csv", func(w io.Writer) error { return experiments.CorpusCSV(w, res) })
		return nil
	})
	// Deliberately excluded from -exp all: the search side alone scores
	// hundreds of genomes, and the blind baseline doubles the corpus.
	if want["hardest"] {
		run("hardest", func() error {
			res, err := experiments.HardestCorpus(ctx, eng, experiments.HardestOptions{
				TopN:  *hardestN,
				Seed:  *hardestSeed,
				Seeds: *seeds,
				Progress: func(g search.GenerationSummary) {
					fmt.Printf("# %s gen %d: best %s\n", g.Family, g.Generation, g.BestMRFString())
				},
			})
			if err != nil {
				return err
			}
			experiments.WriteHardest(os.Stdout, res)
			if *hardestJSON != "" {
				return writeHardestJSON(*hardestJSON, res)
			}
			return nil
		})
	}
	run("ablations", func() error {
		if rows, err := experiments.ConfirmationDepthAblation(ctx, eng, nil); err != nil {
			return err
		} else {
			experiments.WriteAblation(os.Stdout, "confirmation depth K (cut-out-fast trace)", rows)
		}
		if rows, err := experiments.AlphaModelAblation(ctx, eng); err != nil {
			return err
		} else {
			experiments.WriteAblation(os.Stdout, "confirmation-delay alpha model", rows)
		}
		if rows, err := experiments.SearchModeAblation(ctx, eng); err != nil {
			return err
		} else {
			experiments.WriteAblation(os.Stdout, "Eq.-3 accelerated vs naive search", rows)
		}
		if rows, err := experiments.UncertaintyAblation(ctx, eng, nil); err != nil {
			return err
		} else {
			experiments.WriteAblation(os.Stdout, "perception uncertainty (position sigma)", rows)
		}
		rows, err := experiments.AggregationAblation(ctx, eng)
		if err != nil {
			return err
		}
		experiments.WriteAggregationAblation(os.Stdout, rows)
		return nil
	})
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
