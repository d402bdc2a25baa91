// Offline (pre-deployment) analysis: run the paper's "Cut-out fast"
// scenario in the closed-loop simulator, then execute the Zhuyi model
// over the recorded trace — the §3.1 flow that produced Figures 4–6.
// The output shows when each camera's latency budget tightens and how
// it correlates with the ego's deceleration.
package main

import (
	"fmt"
	"os"

	zhuyi "repro"
)

func main() {
	// Scenarios resolve through the registry: the paper's nine, the ODD
	// variants, and any registered generated spec are all addressable
	// here by name.
	name := zhuyi.ScenarioCutOutFast
	res, err := zhuyi.RunScenario(name, 30, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("Scenario %s at 30 FPR: %d rows", name, res.Trace.Len())
	if res.Collided() {
		fmt.Printf(" — COLLISION at t=%.2f s\n", res.Collision.Time)
	} else {
		fmt.Printf(" — safe (closest approach %.2f m)\n", res.MinBumperGap)
	}

	est := zhuyi.NewEstimator()
	off, err := est.EvaluateTrace(res.Trace, zhuyi.OfflineOptions{EvalEvery: 0.25})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("\n%8s %10s %10s %10s %8s\n", "t(s)", "left(ms)", "front(ms)", "right(ms)", "accel")
	for _, pt := range off.Points {
		marker := ""
		if pt.Latency[zhuyi.CameraFront120] < 0.3 {
			marker = "  <- tight"
		}
		fmt.Printf("%8.2f %10.0f %10.0f %10.0f %8.2f%s\n",
			pt.Time,
			pt.Latency[zhuyi.CameraLeft]*1000,
			pt.Latency[zhuyi.CameraFront120]*1000,
			pt.Latency[zhuyi.CameraRight]*1000,
			pt.EgoAccel,
			marker)
	}

	fmt.Printf("\nmax estimated FPR per camera:\n")
	maxFPR := off.MaxCameraFPR()
	for _, cam := range est.Cameras {
		fmt.Printf("  %-10s %5.1f\n", cam, maxFPR[cam])
	}
	fmt.Printf("max total demand (F_c1+F_c2+F_c3): %.1f FPR = %.0f%% of a 3x30 provisioning\n",
		off.MaxSumFPR(), off.MaxSumFPR()/90*100)
}
