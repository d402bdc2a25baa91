package core

// Demand models the Zhuyi model's own compute footprint (§4.2): the
// work is |A|·|T|·M·L·C operations, where |A| is the number of actors,
// |T| the number of predicted trajectories per actor, M the t'_n
// refinement iterations, L the latency grid steps, and C ≈ 100 the
// operations per constraint iteration.
type Demand struct {
	Actors       int
	Trajectories int
	M            int
	L            int
	OpsPerIter   int
}

// OpsPerIteration is the paper's per-iteration op estimate.
const OpsPerIteration = 100

// NewDemand builds the worst-case demand for a scene under the given
// parameters.
func NewDemand(actors, trajectories int, p Params) Demand {
	return Demand{
		Actors:       actors,
		Trajectories: trajectories,
		M:            p.M,
		L:            p.Steps(),
		OpsPerIter:   OpsPerIteration,
	}
}

// Ops returns the worst-case operation count.
func (d Demand) Ops() int {
	return d.Actors * d.Trajectories * d.M * d.L * d.OpsPerIter
}

// ExecutionSeconds estimates wall time on a processor offering the
// given throughput in operations per second (the paper: 60 kops on a
// 10+ GOPS processor executes well within 2 ms).
func (d Demand) ExecutionSeconds(opsPerSecond float64) float64 {
	if opsPerSecond <= 0 {
		return 0
	}
	return float64(d.Ops()) / opsPerSecond
}
