// Online (post-deployment) safety: run the challenging cut-in with the
// Zhuyi-based AV system of §3.2 — the model executes inside the loop on
// the perceived world model, drives per-camera rates through the work
// prioritizer, and logs safety-check alarms — then compare the frames
// processed against the fixed 30-FPR baseline.
package main

import (
	"fmt"
	"os"

	zhuyi "repro"
)

func main() {
	// Scenarios resolve through the registry (covers the paper's nine,
	// ODD variants, and registered generated specs alike).
	name := zhuyi.ScenarioChallengingCutIn

	// Baseline: every camera at the provisioned 30 FPR.
	base, err := zhuyi.RunScenario(name, 30, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Zhuyi-based system: online estimates drive the rates.
	est := zhuyi.NewEstimator()
	est.Cameras = est.Rig.Names()
	ctrl := zhuyi.NewController(est, zhuyi.DefaultControllerConfig())
	res, err := zhuyi.RunControlled(name, 30, 1, ctrl)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	report := func(name string, r *zhuyi.RunResult) int {
		total := 0
		for _, n := range r.FramesProcessed {
			total += n
		}
		outcome := "safe"
		if r.Collided() {
			outcome = fmt.Sprintf("COLLISION at %.2f s", r.Collision.Time)
		}
		fmt.Printf("%-22s %6d frames  (%s)\n", name, total, outcome)
		return total
	}
	fmt.Println("Frames processed over the scenario:")
	baseFrames := report("fixed 30 FPR", base)
	zhuyiFrames := report("Zhuyi-controlled", res)
	fmt.Printf("frame fraction: %.0f%%\n\n", float64(zhuyiFrames)/float64(baseFrames)*100)

	fmt.Printf("safety checks: %d evaluations, %d with alarms, worst action: %s\n",
		len(ctrl.Checks()), ctrl.AlarmCount(), ctrl.WorstAction())
	for _, ck := range ctrl.Checks() {
		for _, a := range ck.Alarms {
			fmt.Printf("  t=%5.1f  %-10s required %5.1f FPR, operating %5.1f (%s)\n",
				a.Time, a.Camera, a.Required, a.Operating, ck.Action)
			break // one alarm per check keeps the output short
		}
	}

	// Work prioritization under a hard budget: the same scenario with
	// only 10 total FPR across five cameras, split uniformly vs by Zhuyi.
	fmt.Println("\nConstrained budget (10 FPR total across 5 cameras):")
	ures, err := zhuyi.RunControlled(name, 30, 1, zhuyi.UniformRates{Cameras: est.Rig.Names(), Budget: 10})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	report("uniform 2 FPR each", ures)

	bcfg := zhuyi.DefaultControllerConfig()
	bcfg.Budget = 10
	best := zhuyi.NewEstimator()
	best.Cameras = best.Rig.Names()
	bres, err := zhuyi.RunControlled(name, 30, 1, zhuyi.NewController(best, bcfg))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	report("Zhuyi-prioritized", bres)
}
