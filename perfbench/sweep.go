package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/predict"
	"repro/internal/replay"
	"repro/internal/safety"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

const (
	// openReps and entriesReps repeat the store calls a sweep makes once
	// per store rather than once per point, so each has a median.
	openReps    = 5
	entriesReps = 5
	// rateRounds is how many times the sweep posts each rate request in
	// each wire mode.
	rateRounds = 2
)

// layerTimes holds the traced run's serial timings: one sample per call
// into a layer's public function, in the order the program calls them.
type layerTimes struct {
	build, simRun               []time.Duration
	jsonl, zyt, zytDecode       []time.Duration
	put, open, lookup, get      []time.Duration
	entries, storeTrace         []time.Duration
	evaluate, summarize, diff   []time.Duration
	estimate, controller        []time.Duration
	handler                     [2][]time.Duration // by wire mode
	steps, evalPoints, diverged int
	jsonlBytes, zytBytes        int64
	stats                       *server.StatsResponse // the sweep server's, after the rate half
	wall                        time.Duration
}

// sweep re-drives a workload's points, then its rate requests, serially
// through each layer's public functions, timing every call. With reqs
// nil the rate requests are sampled from the points' own traces.
func sweep(ctx context.Context, work string, jobs []engine.Job, reqs []rateInput, rng *rand.Rand) (*layerTimes, error) {
	lt := &layerTimes{}
	t0 := time.Now()
	dir := filepath.Join(work, "sweep")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	traces := make([]*trace.Trace, 0, len(jobs))
	summaries := make([]replay.Summary, 0, len(jobs))
	for _, j := range jobs {
		tr, sum, err := lt.point(st, j)
		if err == nil {
			err = ctx.Err()
		}
		if err != nil {
			st.Close()
			return nil, err
		}
		traces = append(traces, tr)
		summaries = append(summaries, sum)
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	if err := lt.reads(dir, jobs, summaries); err != nil {
		return nil, err
	}
	if reqs == nil {
		if reqs, err = rateInputs(rng, traces); err != nil {
			return nil, err
		}
	}
	if err := lt.rate(reqs); err != nil {
		return nil, err
	}
	lt.wall = time.Since(t0)
	return lt, nil
}

// point times one grid point through scenario, sim, trace, store, core
// and replay.
func (lt *layerTimes) point(st *store.Store, j engine.Job) (*trace.Trace, replay.Summary, error) {
	t := time.Now()
	cfg := j.Scenario.Build(j.FPR, j.Seed)
	lt.build = append(lt.build, time.Since(t))
	cfg.Record = trace.LevelFull

	t = time.Now()
	s, err := sim.New(cfg)
	if err != nil {
		return nil, replay.Summary{}, err
	}
	for s.Step() {
	}
	res := s.Result()
	lt.simRun = append(lt.simRun, time.Since(t))
	lt.steps += res.Trace.Len()

	var jb, zb bytes.Buffer
	t = time.Now()
	err = res.Trace.Write(&jb)
	lt.jsonl = append(lt.jsonl, time.Since(t))
	if err != nil {
		return nil, replay.Summary{}, err
	}
	t = time.Now()
	err = res.Trace.WriteZYT(&zb)
	lt.zyt = append(lt.zyt, time.Since(t))
	if err != nil {
		return nil, replay.Summary{}, err
	}
	lt.jsonlBytes += int64(jb.Len())
	lt.zytBytes += int64(zb.Len())
	t = time.Now()
	decoded, err := trace.ReadZYT(bytes.NewReader(zb.Bytes()))
	lt.zytDecode = append(lt.zytDecode, time.Since(t))
	if err != nil {
		return nil, replay.Summary{}, err
	}

	t = time.Now()
	ent, _, err := st.Put(j.Scenario.Name, store.KeyForScenario(j.Scenario, j.FPR, j.Seed), res)
	lt.put = append(lt.put, time.Since(t))
	if err != nil {
		return nil, replay.Summary{}, err
	}

	t = time.Now()
	off, err := core.NewEstimator().EvaluateTrace(res.Trace, core.OfflineOptions{EvalEvery: 0.1})
	lt.evaluate = append(lt.evaluate, time.Since(t))
	if err != nil {
		return nil, replay.Summary{}, err
	}
	lt.evalPoints += len(off.Points)

	t = time.Now()
	sum, err := replay.Summarize(ent, decoded, replay.Options{})
	lt.summarize = append(lt.summarize, time.Since(t))
	return res.Trace, sum, err
}

// reads times the store's read path over the store the points were put
// into, then one replay diff of the summaries against themselves.
func (lt *layerTimes) reads(dir string, jobs []engine.Job, summaries []replay.Summary) error {
	var st *store.Store
	for k := range openReps {
		t := time.Now()
		s, err := store.Open(dir)
		lt.open = append(lt.open, time.Since(t))
		if err != nil {
			return err
		}
		if k < openReps-1 {
			if err := s.Close(); err != nil {
				return err
			}
		}
		st = s
	}
	defer st.Close()
	for _, j := range jobs {
		k := store.KeyForScenario(j.Scenario, j.FPR, j.Seed)
		t := time.Now()
		_, ok := st.Lookup(k)
		lt.lookup = append(lt.lookup, time.Since(t))
		t = time.Now()
		_, hit, err := st.Get(k)
		lt.get = append(lt.get, time.Since(t))
		if err != nil || !ok || !hit {
			return fmt.Errorf("store read of %s fpr %g seed %d: hit %v, %v", j.Scenario.Name, j.FPR, j.Seed, hit, err)
		}
	}
	var entries []store.Entry
	for range entriesReps {
		t := time.Now()
		entries = st.Entries()
		lt.entries = append(lt.entries, time.Since(t))
	}
	for _, e := range entries {
		t := time.Now()
		_, err := st.Trace(e)
		lt.storeTrace = append(lt.storeTrace, time.Since(t))
		if err != nil {
			return err
		}
	}
	t := time.Now()
	divs := replay.Diff(summaries, summaries)
	lt.diff = append(lt.diff, time.Since(t))
	lt.diverged = len(divs)
	return nil
}

// rate times the /v1/rate layers on each request: the online estimate
// and the controller called directly, then the whole handler through a
// recorder in both wire modes.
func (lt *layerTimes) rate(reqs []rateInput) error {
	est := core.NewEstimator()
	cfg := safety.DefaultControllerConfig()
	var pred predict.Predictor = predict.MultiHypothesis{Horizon: est.Params.Horizon, Dt: 0.1}
	l0 := 1 / cfg.MaxFPR
	ctrl := safety.NewController(est, pred, cfg)
	var (
		e   core.Estimate
		esc core.EstimateScratch
		chk safety.CheckResult
	)
	srv := server.New(server.Options{})
	h := srv.Handler()
	for range rateRounds {
		for k, r := range reqs {
			t := time.Now()
			est.EstimateOnlineInto(&e, &esc, r.snap.Time, r.snap.Ego, r.snap.Actors, pred, l0)
			lt.estimate = append(lt.estimate, time.Since(t))
			t = time.Now()
			ctrl.Reset()
			ctrl.RatesFromEstimateReuse(r.snap.Time, r.snap.Ego, r.snap.Actors, e)
			safety.CheckInto(&chk, e, r.operating)
			lt.controller = append(lt.controller, time.Since(t))
			for mode := range wireModes {
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodPost, "/v1/rate", bytes.NewReader(r.body[mode]))
				req.Header.Set("Content-Type", wireModes[mode])
				t = time.Now()
				h.ServeHTTP(rec, req)
				lt.handler[mode] = append(lt.handler[mode], time.Since(t))
				if rec.Code != http.StatusOK {
					return fmt.Errorf("rate request %d (%s): status %d: %s", k, wireModes[mode], rec.Code, rec.Body)
				}
			}
		}
	}
	var err error
	lt.stats, err = statsOf(h)
	return err
}

// statsOf reads GET /v1/stats from a handler.
func statsOf(h http.Handler) (*server.StatsResponse, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st server.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return nil, fmt.Errorf("decode /v1/stats: %w", err)
	}
	return &st, nil
}

// rateHist returns the rate route's p50 and p99 from a stats response.
func rateHist(st *server.StatsResponse) (p50, p99 float64) {
	for _, l := range st.Latency {
		if l.Route == "POST /v1/rate" {
			return l.P50US, l.P99US
		}
	}
	return 0, 0
}

// report sets the per-layer metrics the sweep measured, and each
// layer's total busy seconds.
func (lt *layerTimes) report(r *result) {
	r.set("scenario.build_us", us(medianDur(lt.build)), "us")
	r.set("sim.run_ms", ms(medianDur(lt.simRun)), "ms")
	r.set("sim.run_s", sum(lt.simRun).Seconds(), "s")
	r.set("sim.step_ns", float64(sum(lt.simRun))/float64(max(lt.steps, 1)), "ns")
	r.set("sim.steps", float64(lt.steps), "count")
	r.set("trace.jsonl_encode_ms", ms(medianDur(lt.jsonl)), "ms")
	r.set("trace.zyt_encode_ms", ms(medianDur(lt.zyt)), "ms")
	r.set("trace.jsonl_mb", float64(lt.jsonlBytes)/(1<<20), "MB")
	r.set("trace.zyt_mb", float64(lt.zytBytes)/(1<<20), "MB")
	r.set("trace.zyt_decode_ms", ms(medianDur(lt.zytDecode)), "ms")
	r.set("store.put_ms", ms(medianDur(lt.put)), "ms")
	r.set("store.put_s", sum(lt.put).Seconds(), "s")
	r.set("store.open_ms", ms(medianDur(lt.open)), "ms")
	r.set("store.lookup_us", us(medianDur(lt.lookup)), "us")
	r.set("store.get_ms", ms(medianDur(lt.get)), "ms")
	r.set("store.entries_ms", ms(medianDur(lt.entries)), "ms")
	r.set("store.trace_ms", ms(medianDur(lt.storeTrace)), "ms")
	r.set("core.evaluate_trace_ms", ms(medianDur(lt.evaluate)), "ms")
	r.set("core.eval_points", float64(lt.evalPoints), "count")
	r.set("replay.summarize_ms", ms(medianDur(lt.summarize)), "ms")
	r.set("replay.diff_ms", ms(medianDur(lt.diff)), "ms")
	est, ctl := medianDur(lt.estimate), medianDur(lt.controller)
	r.set("core.estimate_us", us(est), "us")
	r.set("safety.controller_us", us(ctl), "us")
	for mode, name := range [2]string{"json", "binary"} {
		// The codec share is taken per request, from the handler call and
		// the estimate and controller calls on the same snapshot.
		codec := make([]time.Duration, len(lt.handler[mode]))
		for i, hd := range lt.handler[mode] {
			codec[i] = hd - lt.estimate[i] - lt.controller[i]
		}
		r.set("server.rate_handler_"+name+"_us", us(medianDur(lt.handler[mode])), "us")
		r.set("server.rate_codec_"+name+"_us", us(medianDur(codec)), "us")
	}

	r.set("scenario.busy_s", sum(lt.build).Seconds(), "s")
	r.set("sim.busy_s", sum(lt.simRun).Seconds(), "s")
	r.set("trace.busy_s", (sum(lt.jsonl) + sum(lt.zyt) + sum(lt.zytDecode)).Seconds(), "s")
	r.set("store.busy_s", (sum(lt.put) + sum(lt.open) + sum(lt.lookup) + sum(lt.get) + sum(lt.entries) + sum(lt.storeTrace)).Seconds(), "s")
	r.set("core.busy_s", (sum(lt.evaluate) + sum(lt.estimate)).Seconds(), "s")
	r.set("safety.busy_s", sum(lt.controller).Seconds(), "s")
	r.set("replay.busy_s", (sum(lt.summarize) + sum(lt.diff)).Seconds(), "s")
	r.set("server.busy_s", (sum(lt.handler[0]) + sum(lt.handler[1])).Seconds(), "s")
	r.set("tracing.sweep_s", lt.wall.Seconds(), "s")
}
