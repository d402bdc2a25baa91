package core

import (
	"fmt"
	"math"

	"repro/internal/trace"
	"repro/internal/world"
)

// OfflineOptions configures the pre-deployment trace evaluation (§3.1).
type OfflineOptions struct {
	// EvalEvery is the evaluation period in seconds (the Zhuyi model is
	// executed "at each time-step in the scenario trace"; evaluating
	// every 100 ms keeps series readable while preserving peaks).
	EvalEvery float64
	// FutureStride subsamples the recorded future trajectory (rows per
	// sample); 0 defaults to ~50 ms resolution.
	FutureStride int
}

// SeriesPoint is one evaluated instant of an offline run.
type SeriesPoint struct {
	Time     float64
	Latency  map[string]float64 // per camera, s
	FPR      map[string]float64 // per camera
	EgoAccel float64
	Evals    int
}

// OfflineResult is the full pre-deployment evaluation of one trace.
type OfflineResult struct {
	Scenario string
	RunFPR   float64 // FPR the trace was recorded at (l0 = 1/RunFPR)
	Points   []SeriesPoint
	Cameras  []string

	// work is the evaluation storage EvaluateTraceInto keeps with a
	// result for the next evaluation into it; nil on EvaluateTrace's.
	work *offlineWork
}

// offlineWork is one evaluation's transient storage: the futures
// index, the estimate scratch, and the estimate whose actor list and
// threat map every instant refills.
type offlineWork struct {
	futures futureIndex
	sc      EstimateScratch
	est     Estimate
}

// MaxFPR returns the highest per-camera FPR estimate across all
// evaluated instants and cameras — Table 1's "maximum estimated FPR".
func (r *OfflineResult) MaxFPR() float64 {
	max := 0.0
	for _, pt := range r.Points {
		for _, f := range pt.FPR {
			if f > max {
				max = f
			}
		}
	}
	return max
}

// MaxCameraFPR returns the per-camera maxima.
func (r *OfflineResult) MaxCameraFPR() map[string]float64 {
	out := make(map[string]float64, len(r.Cameras))
	for _, pt := range r.Points {
		for cam, f := range pt.FPR {
			if f > out[cam] {
				out[cam] = f
			}
		}
	}
	return out
}

// MaxSumFPR returns the maximum over time of the summed per-camera FPR
// estimates — Table 1's max(F_c1+F_c2+F_c3), the peak total computation
// demand.
func (r *OfflineResult) MaxSumFPR() float64 {
	max := 0.0
	for _, pt := range r.Points {
		sum := 0.0
		for _, f := range pt.FPR {
			sum += f
		}
		if sum > max {
			max = sum
		}
	}
	return max
}

// MeanSumFPR returns the time-averaged summed per-camera demand — the
// frame volume a Zhuyi-driven allocator would actually process, versus
// a fixed provisioning that must hold its rate continuously.
func (r *OfflineResult) MeanSumFPR() float64 {
	if len(r.Points) == 0 {
		return 0
	}
	total := 0.0
	for _, pt := range r.Points {
		for _, f := range pt.FPR {
			total += f
		}
	}
	return total / float64(len(r.Points))
}

// EvaluateTrace runs the Zhuyi model over a recorded scenario trace
// using ground-truth futures (|T| = 1): the paper's pre-deployment
// safety evaluator. The current processing latency l0 is taken from the
// trace metadata (1/FPR).
//
// Each actor's recorded future is a subslice of a per-call futureIndex
// built once per trace, and one EstimateScratch serves every evaluated
// instant through the shared estimateInto core, so beyond the result
// itself (the Points slice and each point's two camera maps) the walk
// allocates only the index and while the scratch grows to its working
// size.
func (e *Estimator) EvaluateTrace(tr *trace.Trace, opt OfflineOptions) (*OfflineResult, error) {
	return e.EvaluateTraceInto(tr, opt, nil)
}

// EvaluateTraceInto is EvaluateTrace overwriting dst, an empty result
// or one an earlier evaluation returned: it reuses dst's Points slice,
// each point's two camera maps (cleared), and the futures index and
// scratch an earlier EvaluateTraceInto left with dst, so a caller
// evaluating trace after trace allocates only when one outgrows them.
// It returns dst, whose previous contents are gone; a nil dst
// allocates a result, as EvaluateTrace does. A result must not be
// evaluated into by two goroutines at once.
func (e *Estimator) EvaluateTraceInto(tr *trace.Trace, opt OfflineOptions, dst *OfflineResult) (*OfflineResult, error) {
	if tr.Len() == 0 {
		return nil, fmt.Errorf("core: empty trace")
	}
	if opt.EvalEvery <= 0 {
		opt.EvalEvery = 0.1
	}
	stride := opt.FutureStride
	if stride <= 0 {
		stride = int(math.Max(1, 0.05/math.Max(tr.Meta.Dt, 1e-6)))
	}
	l0 := 0.0
	if tr.Meta.FPR > 0 {
		l0 = 1 / tr.Meta.FPR
	}

	rowEvery := int(math.Max(1, math.Round(opt.EvalEvery/math.Max(tr.Meta.Dt, 1e-6))))
	points := (tr.Len() + rowEvery - 1) / rowEvery
	cams := e.cameras()
	res, w := dst, dst.reuse(points)
	if res == nil {
		res = &OfflineResult{Points: make([]SeriesPoint, 0, points)}
	}
	res.Scenario, res.RunFPR, res.Cameras = tr.Meta.Scenario, tr.Meta.FPR, cams

	w.futures.reset(tr, stride, e.Params.Horizon)
	sc, est := &w.sc, &w.est
	if est.CameraThreat == nil {
		est.CameraThreat = make(map[string]bool, len(cams))
	}
	pts := res.Points[:0]
	for i := 0; i < tr.Len(); i += rowEvery {
		row := &tr.Rows[i]
		class, q, end := w.futures.instant(i)
		sc.trajs = sc.trajs[:0]
		sc.actorTraj = sc.actorTraj[:0]
		for k := range row.Actors {
			start := len(sc.trajs)
			id := row.Actors[k].ID
			if pts := class.future(id, q, end); pts != nil {
				sc.trajs = append(sc.trajs, world.Trajectory{ActorID: id, Prob: 1, Points: pts})
			}
			sc.actorTraj = append(sc.actorTraj, [2]int{start, len(sc.trajs)})
		}
		// Each point keeps its own camera maps, a reused point's or new
		// ones (estimateInto clears them); the threat map is scratch
		// and is not part of the result.
		old := pts[:len(pts)+1][len(pts)]
		est.CameraLatency, est.CameraFPR = old.Latency, old.FPR
		if est.CameraLatency == nil {
			est.CameraLatency = make(map[string]float64, len(cams))
			est.CameraFPR = make(map[string]float64, len(cams))
		}
		e.estimateInto(est, sc, row.Time, row.Ego, row.Actors, l0)
		pts = append(pts, SeriesPoint{
			Time:     row.Time,
			Latency:  est.CameraLatency,
			FPR:      est.CameraFPR,
			EgoAccel: row.Ego.Accel,
			Evals:    est.Evals,
		})
	}
	res.Points = pts
	w.futures.tr = nil
	return res, nil
}

// reuse readies r to take an evaluation of n points and returns the
// storage the evaluation works in: r's own, kept for the next
// evaluation, or new for a nil r. Points past r's length keep their
// maps for reuse; a Points slice that has to grow takes a quarter more
// than n and carries the old points' maps along.
func (r *OfflineResult) reuse(n int) *offlineWork {
	if r == nil {
		return new(offlineWork)
	}
	if cap(r.Points) < n {
		old := r.Points[:cap(r.Points)]
		r.Points = make([]SeriesPoint, len(old), n+n/4)
		copy(r.Points, old)
	}
	if r.work == nil {
		r.work = new(offlineWork)
	}
	return r.work
}
