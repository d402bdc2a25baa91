package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// BenchmarkEvaluateTrace times the offline evaluator alone on traces
// already in memory: the Zhuyi kernel and the recorded-future index,
// without the store read and ZYT decode that
// internal/replay's BenchmarkReplayVsSimulate/Replay adds. cut-out at
// 30 FPR is that benchmark's point. challenging-cut-in-curved runs the
// most Eq. 1–5 constraint evaluations of the registered scenarios, on a
// curved road where headings are not zero.
func BenchmarkEvaluateTrace(b *testing.B) {
	for _, name := range []string{scenario.CutOut, scenario.ChallengingCutInCurved} {
		b.Run(name, func(b *testing.B) {
			sc, ok := scenario.Lookup(name)
			if !ok {
				b.Fatalf("%s not registered", name)
			}
			res, err := sim.Run(sc.Build(30, 1))
			if err != nil {
				b.Fatal(err)
			}
			e := core.NewEstimator()
			b.ReportAllocs()
			for b.Loop() {
				if _, err := e.EvaluateTrace(res.Trace, core.OfflineOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
