package main

// The persistent-store subcommands: record a corpus of closed-loop
// runs into an on-disk campaign store, replay the archived traces
// through the offline evaluator, and diff a replay against recorded
// baselines (the regression check).

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/trace"
)

// engineOptions assembles engine options for a run-campaign
// subcommand, opening the persistent store when a directory is given.
// record is the trace recording level for the engine's runs; summary
// consumers (mrf, rate, campaign) pass trace.LevelSummary to skip row
// materialization, and store-recorded runs stay full regardless (the
// engine upgrades persistable jobs). The returned closer is non-nil
// exactly when a store was opened.
func engineOptions(storeDir string, workers int, record trace.Level) (engine.Options, func(), error) {
	opts := engine.Options{Workers: workers, Record: record}
	if storeDir == "" {
		return opts, func() {}, nil
	}
	st, err := store.Open(storeDir)
	if err != nil {
		return opts, nil, err
	}
	opts.Store = st
	return opts, func() { st.Close() }, nil
}

// cmdStore dispatches the store-maintenance subcommands.
func cmdStore(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: zhuyi store migrate [flags]")
	}
	switch args[0] {
	case "migrate":
		return cmdStoreMigrate(args[1:])
	default:
		return fmt.Errorf("unknown store subcommand %q (migrate)", args[0])
	}
}

// cmdStoreMigrate rewrites every archived trace object to the target
// on-disk format in place: each object is decoded, verified against
// its content hash, rewritten through a temp file, fsynced, and
// renamed — a crash mid-migration leaves every object readable in one
// format or the other, never half-written.
func cmdStoreMigrate(args []string) error {
	fs := flag.NewFlagSet("store migrate", flag.ExitOnError)
	dir := fs.String("store", "", "store directory (required)")
	to := fs.String("to", string(store.FormatZYT), "target object format: zyt (binary columnar) or jsonl (legacy gzip JSONL)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("store migrate: -store is required")
	}
	target, err := store.ParseFormat(*to)
	if err != nil {
		return err
	}
	st, err := store.Open(*dir)
	if err != nil {
		return err
	}
	defer st.Close()
	stats, err := st.Migrate(target)
	if err != nil {
		return err
	}
	fmt.Printf("migrated %s to %s: %d objects scanned, %d rewritten, %d already current (%d -> %d bytes)\n",
		*dir, target, stats.Scanned, stats.Rewritten, stats.Skipped, stats.BytesIn, stats.BytesOut)
	return nil
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	dir := fs.String("store", "", "store directory (required)")
	names := fs.String("scenarios", "", "comma-separated scenario names (default: by -tags)")
	tags := fs.String("tags", scenario.TagTable1, "registry tags selecting scenarios when -scenarios is empty")
	fprs := fs.String("fprs", "", "comma-separated rates (default: the Table-1 grid)")
	seeds := fs.Int("seeds", 10, "seeded runs per (scenario, rate) point")
	workers := fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	baselines := fs.Bool("baselines", true, "refresh regression baselines for the recorded points")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("record: -store is required")
	}
	// Zero seeds would record an empty campaign and exit 0.
	if *seeds <= 0 {
		return fmt.Errorf("record: -seeds must be positive, got %d", *seeds)
	}

	scs, err := resolveScenarios(*names, *tags)
	if err != nil {
		return err
	}
	grid, err := parseFPRs(*fprs)
	if err != nil {
		return err
	}

	st, err := store.Open(*dir)
	if err != nil {
		return err
	}
	defer st.Close()
	eng := engine.New(engine.Options{Workers: *workers, Store: st})
	defer eng.Close()

	var jobs []engine.Job
	for _, sc := range scs {
		for _, fpr := range grid {
			for seed := int64(1); seed <= int64(*seeds); seed++ {
				jobs = append(jobs, engine.Job{Scenario: sc, FPR: fpr, Seed: seed})
			}
		}
	}
	batch, err := eng.RunBatch(context.Background(), jobs)
	if err != nil {
		return err
	}
	s := batch.Stats
	fmt.Printf("recorded %d points in %s: %d fresh, %d disk hits, %d memory hits (%d scenarios x %d rates x %d seeds)\n",
		s.Jobs, s.Wall.Round(1e6), s.Executed, s.DiskHits, s.CacheHits, len(scs), len(grid), *seeds)

	if !*baselines {
		return nil
	}
	// Refresh baselines only for the scenarios this invocation
	// recorded: an incremental record must not silently re-baseline the
	// rest of the store (that would erase exactly the divergences the
	// harness exists to catch). Re-run record over everything — or
	// delete baselines.jsonl — to re-baseline deliberately.
	recorded := make([]string, len(scs))
	for i, sc := range scs {
		recorded[i] = sc.Name
	}
	rep, err := replay.Run(context.Background(), st, replay.Options{Workers: *workers, Scenarios: recorded})
	if err != nil {
		return err
	}
	if err := replay.WriteBaselines(st, rep.Summaries); err != nil {
		return err
	}
	fmt.Printf("baselines refreshed: %d runs (%d scenarios) -> %s\n",
		len(rep.Summaries), len(recorded), replay.BaselinePath(st))
	return nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	dir := fs.String("store", "", "store directory (required)")
	names := fs.String("scenarios", "", "comma-separated scenario names (default: every archived run)")
	every := fs.Float64("every", 0.1, "offline evaluation period, s")
	workers := fs.Int("workers", 0, "concurrent replays (0 = GOMAXPROCS)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("replay: -store is required")
	}
	st, err := store.Open(*dir)
	if err != nil {
		return err
	}
	defer st.Close()
	rep, err := replay.Run(context.Background(), st, replay.Options{
		EvalEvery: *every, Workers: *workers, Scenarios: splitList(*names),
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-28s %5s %5s %6s %9s %8s %8s %7s\n",
		"Scenario", "FPR", "seed", "rows", "collided", "min-gap", "est-max", "alarms")
	for _, s := range rep.Summaries {
		gap := "+Inf"
		if !s.MinGapInfinite {
			gap = fmt.Sprintf("%.2f", s.MinGap)
		}
		collided := "no"
		if s.Collided {
			collided = fmt.Sprintf("t=%.2f", s.CollisionTime)
		}
		fmt.Printf("%-28s %5g %5d %6d %9s %8s %8.2f %7d\n",
			s.Scenario, s.FPR, s.Seed, s.Rows, collided, gap, s.MaxEstFPR, s.Alarms)
	}
	fmt.Printf("# replayed %d archived runs in %s (no simulation)\n", len(rep.Summaries), rep.Wall.Round(1e6))
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	dir := fs.String("store", "", "store directory (required)")
	every := fs.Float64("every", 0.1, "offline evaluation period, s (must match the recorded baselines)")
	workers := fs.Int("workers", 0, "concurrent replays (0 = GOMAXPROCS)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("diff: -store is required")
	}
	st, err := store.Open(*dir)
	if err != nil {
		return err
	}
	defer st.Close()
	base, err := replay.LoadBaselines(st)
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("diff: no baselines in %s (run 'zhuyi record' first)", *dir)
		}
		return err
	}
	rep, err := replay.Run(context.Background(), st, replay.Options{EvalEvery: *every, Workers: *workers})
	if err != nil {
		return err
	}
	divs := replay.Diff(base, rep.Summaries)
	if len(divs) == 0 {
		fmt.Printf("zero divergences: %d archived runs replayed against %d baselines in %s\n",
			len(rep.Summaries), len(base), rep.Wall.Round(1e6))
		return nil
	}
	for _, d := range divs {
		fmt.Println(d.String())
	}
	return fmt.Errorf("diff: %d divergence(s) across %d archived runs", len(divs), len(rep.Summaries))
}

// resolveScenarios returns explicit names, or the registry selection
// for the tags.
func resolveScenarios(names, tags string) ([]scenario.Scenario, error) {
	if names != "" {
		var out []scenario.Scenario
		for _, name := range splitList(names) {
			sc, ok := scenario.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("unknown scenario %q (try 'zhuyi scenarios list')", name)
			}
			out = append(out, sc)
		}
		return out, nil
	}
	out := scenario.Default().List(splitList(tags)...)
	if len(out) == 0 {
		return nil, fmt.Errorf("no scenarios match tags %q", tags)
	}
	return out, nil
}

// parseFPRs parses a comma-separated rate list; empty selects the
// Table-1 grid.
func parseFPRs(s string) ([]float64, error) {
	if s == "" {
		return metrics.DefaultFPRGrid(), nil
	}
	var out []float64
	for _, item := range splitList(s) {
		f, err := strconv.ParseFloat(item, 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("bad rate %q in -fprs", item)
		}
		out = append(out, f)
	}
	return out, nil
}
