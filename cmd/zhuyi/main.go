// Command zhuyi runs the Zhuyi model from the command line:
//
//	zhuyi estimate -scenario cut-in -fpr 5   offline per-camera FPR series of one run's trace
//	zhuyi render -scenario cut-in -fpr 5     the same run as ego-relative ASCII top views
//	zhuyi sweep -sn 30                       Figure-8 velocity sensitivity grid
//	zhuyi demand -actors 2 -trajectories 1   the model's own compute demand (§4.2)
//	zhuyi mrf -scenario cut-out -seeds 10    minimum required FPR search
//	zhuyi rate -scenario cut-out -fpr 5      collision rate at a fixed rate
//	zhuyi scenarios list -tags table1        registered scenario catalog
//	zhuyi scenarios describe -scenario X     one scenario's spec and compiled geometry
//	zhuyi scenarios generate -n 50 -seed 1   procedural scenario corpus (validated)
//	zhuyi scenarios search -seed 1 -top 20   evolve families toward MRF-hard corpora
//	zhuyi record -store DIR -tags table1     archive a corpus of runs into a persistent store
//	zhuyi replay -store DIR                  re-evaluate archived traces (no simulation)
//	zhuyi diff -store DIR                    diff a replay against recorded baselines
//	zhuyi store migrate -store DIR           upgrade legacy gzip-JSONL trace objects to ZYT1
//	zhuyi campaign -fprs 5,30 -seeds 3       batch of seeded runs, local or -server URL
//	zhuyi serve -addr :8080 -store DIR       the HTTP campaign service (see docs/api.md)
//
// The run-campaign subcommands (mrf, rate, record, campaign, serve)
// take -workers to size the engine's simulation pool (default:
// GOMAXPROCS). Scenario names resolve through the registry, so
// mrf/rate also accept ODD variants (e.g. truck-cut-out) beyond the
// paper's nine. record archives every fresh run into a
// content-addressed store and refreshes the replay baselines; diff
// exits non-zero when any archived run's replay diverges from its
// baseline. serve exposes the same engine+store stack over HTTP with
// graceful drain on SIGTERM; campaign -server runs the batch through
// a remote serve instance via the typed Go client. estimate and render
// read one (scenario, FPR, seed) point's rows through the engine: with
// -store an archived point is read back instead of simulated, and a
// fresh one is archived.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/render"
	"repro/internal/scenario"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "estimate":
		err = cmdEstimate(os.Args[2:])
	case "render":
		err = cmdRender(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "demand":
		err = cmdDemand(os.Args[2:])
	case "mrf":
		err = cmdMRF(os.Args[2:])
	case "rate":
		err = cmdRate(os.Args[2:])
	case "scenarios":
		err = cmdScenarios(os.Args[2:])
	case "record":
		err = cmdRecord(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "store":
		err = cmdStore(os.Args[2:])
	case "campaign":
		err = cmdCampaign(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "zhuyi:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: zhuyi <estimate|render|sweep|demand|mrf|rate|scenarios|record|replay|diff|store|campaign|serve> [flags]")
}

func cmdEstimate(args []string) error {
	fs := flag.NewFlagSet("estimate", flag.ExitOnError)
	readPoint := pointFlags(fs)
	every := fs.Float64("every", 0.1, "evaluation period, s")
	fs.Parse(args)
	tr, err := readPoint()
	if err != nil {
		return err
	}
	est := core.NewEstimator()
	off, err := est.EvaluateTrace(tr, core.OfflineOptions{EvalEvery: *every})
	if err != nil {
		return err
	}
	fmt.Printf("# scenario %s run at %g FPR (%d rows)\n", tr.Meta.Scenario, tr.Meta.FPR, tr.Len())
	fmt.Printf("%8s", "t(s)")
	for _, cam := range off.Cameras {
		fmt.Printf(" %10s", cam)
	}
	fmt.Println(" (latency ms)")
	for _, pt := range off.Points {
		fmt.Printf("%8.2f", pt.Time)
		for _, cam := range off.Cameras {
			fmt.Printf(" %10.0f", pt.Latency[cam]*1000)
		}
		fmt.Println()
	}
	fmt.Printf("# max estimated FPR: %.2f\n", off.MaxFPR())
	maxFPR := off.MaxCameraFPR()
	for _, cam := range off.Cameras {
		fmt.Printf("#   %s: %.2f\n", cam, maxFPR[cam])
	}
	fmt.Printf("# max sum FPR (analyzed cameras): %.2f (fraction of 3x30: %.2f)\n",
		off.MaxSumFPR(), off.MaxSumFPR()/90)
	return nil
}

func cmdRender(args []string) error {
	fs := flag.NewFlagSet("render", flag.ExitOnError)
	readPoint := pointFlags(fs)
	every := fs.Float64("every", 1.0, "seconds between frames")
	ahead := fs.Float64("ahead", 100, "meters ahead of the ego in view")
	fs.Parse(args)
	tr, err := readPoint()
	if err != nil {
		return err
	}
	v := render.DefaultViewport()
	v.Ahead = *ahead
	fmt.Printf("# %s (run at %g FPR, seed %d)\n\n", tr.Meta.Scenario, tr.Meta.FPR, tr.Meta.Seed)
	fmt.Print(render.Strip(tr, *every, v))
	return nil
}

// pointFlags registers the flags naming the one (scenario, FPR, seed)
// point that estimate and render read, with an optional -store. The
// returned function, called after fs.Parse, returns the point's rows
// through Engine.Trace: read back from the store when archived there,
// else simulated (and archived when a store is given). A stderr line
// names the tier that answered.
func pointFlags(fs *flag.FlagSet) func() (*trace.Trace, error) {
	name := fs.String("scenario", scenario.CutOut, "scenario name (see 'zhuyi scenarios list')")
	fpr := fs.Float64("fpr", 30, "uniform per-camera frame processing rate")
	seed := fs.Int64("seed", 1, "noise/jitter seed")
	storeDir := fs.String("store", "", "persistent run store: an archived point is read back, a fresh one is archived")
	return func() (*trace.Trace, error) {
		sc, ok := scenario.Lookup(*name)
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q (try 'zhuyi scenarios list')", *name)
		}
		if *fpr <= 0 {
			return nil, fmt.Errorf("%s: -fpr must be positive, got %g", fs.Name(), *fpr)
		}
		opts, closeStore, err := engineOptions(*storeDir, 1, trace.LevelFull)
		if err != nil {
			return nil, err
		}
		defer closeStore()
		eng := engine.New(opts)
		tr, err := eng.Trace(context.Background(), engine.Job{Scenario: sc, FPR: *fpr, Seed: *seed})
		eng.Close() // stops the workers before the store closes
		if err != nil {
			return nil, err
		}
		s := eng.Stats()
		fmt.Fprintf(os.Stderr, "zhuyi %s: %s fpr %g seed %d: %d fresh, %d disk, %d store errors\n",
			fs.Name(), sc.Name, *fpr, *seed, s.Executed, s.DiskHits, s.StoreErrors)
		return tr, nil
	}
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	sn := fs.Float64("sn", 30, "fixed tolerable distance, m (paper: 30 and 100)")
	fs.Parse(args)
	res := experiments.Figure8(*sn)
	experiments.WriteSweep(os.Stdout, res)
	sum := experiments.Summarize(res)
	fmt.Printf("# feasible %d, 30+ %d, unavoidable %d; max FPR %d (streets <=25mph: %d)\n",
		sum.Feasible, sum.ThirtyPlus, sum.Unavoidable, sum.MaxFPR, sum.StreetMaxFPR)
	return nil
}

func cmdDemand(args []string) error {
	fs := flag.NewFlagSet("demand", flag.ExitOnError)
	actors := fs.Int("actors", 2, "number of surrounding actors |A|")
	trajs := fs.Int("trajectories", 1, "predicted trajectories per actor |T|")
	gops := fs.Float64("gops", 10, "processor throughput, GOPS")
	fs.Parse(args)
	d := core.NewDemand(*actors, *trajs, core.DefaultParams())
	fmt.Printf("ops per Zhuyi evaluation: %d (|A|=%d x |T|=%d x M=%d x L=%d x C=%d)\n",
		d.Ops(), d.Actors, d.Trajectories, d.M, d.L, d.OpsPerIter)
	fmt.Printf("execution on %.0f GOPS: %.3f ms\n", *gops, d.ExecutionSeconds(*gops*1e9)*1000)
	return nil
}

func cmdMRF(args []string) error {
	fs := flag.NewFlagSet("mrf", flag.ExitOnError)
	name := fs.String("scenario", scenario.CutOut, "scenario name (see 'zhuyi scenarios list')")
	seeds := fs.Int("seeds", 10, "seeded runs per rate")
	workers := fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	storeDir := fs.String("store", "", "persistent run store: archived points answer from the manifest, fresh runs are archived")
	fs.Parse(args)
	sc, ok := scenario.Lookup(*name)
	if !ok {
		return fmt.Errorf("unknown scenario %q (try 'zhuyi scenarios list')", *name)
	}
	// The search reads nothing but collision outcomes, so runs record
	// at summary level (store-archived points stay full).
	opts, closeStore, err := engineOptions(*storeDir, *workers, trace.LevelSummary)
	if err != nil {
		return err
	}
	defer closeStore()
	eng := engine.New(opts)
	m, err := metrics.FindMRF(context.Background(), eng, sc, metrics.DefaultFPRGrid(), *seeds)
	if err != nil {
		return err
	}
	fmt.Printf("%s: MRF = %s (cameras: %v, %d runs on %d workers)\n",
		sc.Name, m.String(), sensor.AnalyzedCameras(), m.Runs, eng.Workers())
	for _, f := range metrics.DefaultFPRGrid() {
		if n, ok := m.Collisions[f]; ok {
			fmt.Printf("  FPR %4g: %d/%d collisions\n", f, n, m.Seeds)
		} else {
			fmt.Printf("  FPR %4g: skipped (below a colliding rate)\n", f)
		}
	}
	return nil
}

func cmdRate(args []string) error {
	fs := flag.NewFlagSet("rate", flag.ExitOnError)
	name := fs.String("scenario", scenario.CutOut, "scenario name (see 'zhuyi scenarios list')")
	fpr := fs.Float64("fpr", 5, "uniform per-camera frame processing rate")
	runs := fs.Int("runs", 10, "seeded runs")
	workers := fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	storeDir := fs.String("store", "", "persistent run store: archived points answer from the manifest, fresh runs are archived")
	fs.Parse(args)
	sc, ok := scenario.Lookup(*name)
	if !ok {
		return fmt.Errorf("unknown scenario %q (try 'zhuyi scenarios list')", *name)
	}
	opts, closeStore, err := engineOptions(*storeDir, *workers, trace.LevelSummary)
	if err != nil {
		return err
	}
	defer closeStore()
	eng := engine.New(opts)
	rate, err := metrics.CollisionRate(context.Background(), eng, sc, *fpr, *runs)
	if err != nil {
		return err
	}
	fmt.Printf("%s @ %g FPR: collision rate %.2f (%d runs on %d workers)\n",
		sc.Name, *fpr, rate, *runs, eng.Workers())
	return nil
}

func cmdScenarios(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: zhuyi scenarios <list|describe|generate|search> [flags]")
	}
	switch args[0] {
	case "list":
		return cmdScenariosList(args[1:])
	case "describe":
		return cmdScenariosDescribe(args[1:])
	case "generate":
		return cmdScenariosGenerate(args[1:])
	case "search":
		return cmdScenariosSearch(args[1:])
	default:
		return fmt.Errorf("unknown scenarios subcommand %q (list, describe, generate, search)", args[0])
	}
}

func cmdScenariosList(args []string) error {
	fs := flag.NewFlagSet("scenarios list", flag.ExitOnError)
	tags := fs.String("tags", "", "comma-separated tags to filter by (e.g. table1, variant)")
	fs.Parse(args)
	scs := scenario.Default().List(splitList(*tags)...)
	if len(scs) == 0 {
		return fmt.Errorf("no scenarios match tags %q", *tags)
	}
	fmt.Printf("%-28s %5s %-18s %s\n", "Name", "mph", "Tags", "Description")
	for _, sc := range scs {
		fmt.Printf("%-28s %5.1f %-18s %s\n",
			sc.Name, sc.EgoSpeedMPH, strings.Join(sc.Tags, ","), sc.Description)
	}
	return nil
}

// splitList parses a comma-separated flag value, trimming whitespace.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, item := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(item))
	}
	return out
}

func cmdScenariosDescribe(args []string) error {
	fs := flag.NewFlagSet("scenarios describe", flag.ExitOnError)
	name := fs.String("scenario", scenario.CutOut, "scenario name")
	fpr := fs.Float64("fpr", 30, "rate for the compiled-geometry preview")
	seed := fs.Int64("seed", 1, "jitter seed for the compiled-geometry preview")
	fs.Parse(args)
	if *fpr <= 0 {
		return fmt.Errorf("scenarios describe: -fpr must be positive, got %g", *fpr)
	}
	sc, ok := scenario.Lookup(*name)
	if !ok {
		return fmt.Errorf("unknown scenario %q (try 'zhuyi scenarios list')", *name)
	}
	fmt.Printf("%s — %s\n", sc.Name, sc.Description)
	fmt.Printf("  ego: %g mph, activity front=%v right=%v left=%v, tags: %s\n",
		sc.EgoSpeedMPH, sc.Front, sc.Right, sc.Left, strings.Join(sc.Tags, ","))
	road := fmt.Sprintf("straight, %.0f m", sc.Road.Length)
	if sc.Road.Curved {
		road = fmt.Sprintf("curved, lead-in %.0f m, radius %.0f m, arc %.0f m",
			sc.Road.LeadIn, sc.Road.Radius, sc.Road.ArcLen)
	}
	fmt.Printf("  spec: %d-lane road (%s), ego lane %d, %.0f s, %d actors\n",
		sc.Road.Lanes, road, sc.EgoLane, sc.Duration, len(sc.Actors))
	cfg := sc.Build(*fpr, *seed)
	fmt.Printf("  compiled at fpr %g seed %d:\n", *fpr, *seed)
	for _, a := range cfg.Actors {
		stages := 0
		if a.Script != nil {
			stages = len(a.Script.Stages)
		}
		fmt.Printf("    %-14s s=%7.2f m  d=%6.2f m  v=%5.2f m/s  stages=%d\n",
			a.ID, a.Init.S, a.Init.D, a.Init.Speed, stages)
	}
	return nil
}

func cmdScenariosGenerate(args []string) error {
	fs := flag.NewFlagSet("scenarios generate", flag.ExitOnError)
	n := fs.Int("n", 20, "number of scenarios to generate")
	seed := fs.Int64("seed", 1, "generator seed (same seed reproduces the corpus)")
	families := fs.String("families", "", "comma-separated families (default: all of "+familyList()+")")
	checkSeeds := fs.Int64("check-seeds", 3, "jitter seeds to compile-check each spec with")
	fs.Parse(args)

	// An empty corpus is never what the caller meant: fail loudly
	// instead of printing a header and exiting 0.
	if *n <= 0 {
		return fmt.Errorf("scenarios generate: -n must be positive, got %d", *n)
	}
	if *checkSeeds < 0 {
		return fmt.Errorf("scenarios generate: -check-seeds must be non-negative, got %d", *checkSeeds)
	}
	var fams []scenario.Family
	for _, f := range splitList(*families) {
		fams = append(fams, scenario.Family(f))
	}
	opt := scenario.GenOptions{Seed: *seed, Families: fams}
	if err := opt.Validate(); err != nil {
		return err
	}
	specs := scenario.NewGenerator(opt).Generate(*n)

	names := make(map[string]bool, len(specs))
	fmt.Printf("%-24s %5s %s\n", "Name", "mph", "Description")
	for _, sp := range specs {
		if names[sp.Name] {
			return fmt.Errorf("generator produced duplicate name %q", sp.Name)
		}
		names[sp.Name] = true
		if err := sp.Validate(); err != nil {
			return fmt.Errorf("generated spec invalid: %w", err)
		}
		for s := int64(1); s <= *checkSeeds; s++ {
			if err := sim.ValidateConfig(sp.Compile(30, s)); err != nil {
				return fmt.Errorf("%s seed %d: compiled config invalid: %w", sp.Name, s, err)
			}
		}
		fmt.Printf("%-24s %5.0f %s\n", sp.Name, sp.EgoSpeedMPH, sp.Description)
	}
	fmt.Printf("# %d distinct valid scenarios (generator seed %d)\n", len(names), *seed)
	return nil
}

func familyList() string {
	var out []string
	for _, f := range scenario.Families() {
		out = append(out, string(f))
	}
	return strings.Join(out, ",")
}
