package main

// The campaign subcommand: run a batch of (scenario, FPR, seed) points
// either locally (on a private engine, optionally store-backed) or
// against a remote `zhuyi serve` instance via the typed client —
// exercising exactly the facade API (zhuyi.Campaign / zhuyi.Client)
// the library documents.

import (
	"context"
	"flag"
	"fmt"
	"math"

	zhuyi "repro"
	"repro/internal/profiling"
	"repro/internal/scenario"
	"repro/internal/trace"
)

func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	serverURL := fs.String("server", "", "campaign service base URL (e.g. http://127.0.0.1:8080); empty runs locally")
	names := fs.String("scenarios", "", "comma-separated scenario names (default: by -tags)")
	tags := fs.String("tags", scenario.TagTable1, "registry tags selecting scenarios when -scenarios is empty")
	fprs := fs.String("fprs", "30", "comma-separated rates")
	seeds := fs.Int("seeds", 3, "seeded runs per (scenario, rate) point")
	workers := fs.Int("workers", 0, "local mode: concurrent simulations (0 = GOMAXPROCS)")
	storeDir := fs.String("store", "", "local mode: persistent run store")
	quiet := fs.Bool("quiet", false, "suppress per-point lines, print only the stats summary")
	prof := profiling.Register(fs)
	fs.Parse(args)

	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer stopProf()

	// Zero seeds would run an empty campaign and exit 0.
	if *seeds <= 0 {
		return fmt.Errorf("campaign: -seeds must be positive, got %d", *seeds)
	}
	scs, err := resolveScenarios(*names, *tags)
	if err != nil {
		return err
	}
	grid, err := parseFPRs(*fprs)
	if err != nil {
		return err
	}
	var points []zhuyi.CampaignPoint
	for _, sc := range scs {
		for _, fpr := range grid {
			for seed := int64(1); seed <= int64(*seeds); seed++ {
				points = append(points, zhuyi.CampaignPoint{Scenario: sc.Name, FPR: fpr, Seed: seed})
			}
		}
	}

	ctx := context.Background()
	var res *zhuyi.CampaignResult
	if *serverURL != "" {
		cl := zhuyi.NewClient(*serverURL)
		res, err = cl.CampaignStream(ctx, points, func(p zhuyi.PointResult) {
			if !*quiet {
				printPointLine(p.Scenario, p.FPR, p.Seed, p.Source, p.Collided, p.CollisionTime, p.MinGapInfinite, p.MinBumperGap)
			}
		})
	} else {
		opts, closeStore, oerr := engineOptions(*storeDir, *workers, trace.LevelSummary)
		if oerr != nil {
			return oerr
		}
		defer closeStore()
		eng := zhuyi.NewEngine(opts)
		res, err = zhuyi.Campaign(ctx, eng, points)
		if res != nil && !*quiet {
			for _, o := range res.Outcomes {
				if o.Err != nil {
					fmt.Printf("%-28s fpr %4g seed %2d  error: %v\n", o.Point.Scenario, o.Point.FPR, o.Point.Seed, o.Err)
					continue
				}
				r := o.Result
				printPointLine(o.Point.Scenario, o.Point.FPR, o.Point.Seed, o.Source,
					r.Collision != nil, collisionTime(r), math.IsInf(r.MinBumperGap, 1), r.MinBumperGap)
			}
		}
	}
	if res != nil {
		s := res.Stats
		fmt.Printf("# campaign: %d points in %s: %d fresh, %d memory, %d disk, %d failed, %d skipped\n",
			s.Jobs, s.Wall.Round(1e6), s.Executed, s.CacheHits, s.DiskHits, s.Failures, s.Skipped)
	}
	return err
}

// printPointLine renders one campaign-point outcome; local and remote
// modes share it so their output cannot drift (the CI server smoke
// greps the stats line, humans diff the point lines).
func printPointLine(name string, fpr float64, seed int64, source string, collided bool, collidedAt float64, gapInf bool, gap float64) {
	collStr := "no"
	if collided {
		collStr = fmt.Sprintf("t=%.2f", collidedAt)
	}
	gapStr := "+Inf"
	if !gapInf {
		gapStr = fmt.Sprintf("%.2f", gap)
	}
	fmt.Printf("%-28s fpr %4g seed %2d  %-6s collided=%-7s min-gap %s\n",
		name, fpr, seed, source, collStr, gapStr)
}

// collisionTime is the collision instant, or 0 for a clean run.
func collisionTime(r *zhuyi.RunResult) float64 {
	if r.Collision == nil {
		return 0
	}
	return r.Collision.Time
}
