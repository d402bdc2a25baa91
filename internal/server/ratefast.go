package server

// ratefast.go is the pooled serving path behind POST /v1/rate. Each
// request borrows a rateScratch from a sync.Pool: the body buffer,
// decoded request, estimator scratch, controller, and binary response
// buffer all live in it and are reused across requests. On the binary
// wire (ratewire.go) a steady-state request performs no heap
// allocation at all; the JSON wire decodes with encoding/json into the
// reused request and answers through WriteJSON, and allocates within a
// fixed ceiling (both pinned by TestRateServeAllocBudget, a step of
// the CI loadtest job). The scratch also carries a stable histogram
// shard hint, so latency self-recording never contends across pooled
// requests. Admission priority (internal/admission) brackets the
// compute; the engine's campaign workers yield while any rate request
// is in flight.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hist"
	"repro/internal/predict"
	"repro/internal/safety"
	"repro/internal/sensor"
	"repro/internal/world"
)

// maxInternEntries bounds the per-scratch ID intern table; a table
// that outgrows it (an adversarial stream of unique IDs) is dropped
// and rebuilt rather than growing without bound.
const maxInternEntries = 4096

// rateScratch is the per-request working set of the pooled path.
type rateScratch struct {
	body []byte // request body, read fully before decoding
	out  []byte // encoded binary response

	// ids interns binary-frame agent IDs and operating-map keys: a
	// fleet posting the same snapshot shape allocates each distinct
	// string once per pooled scratch, ever.
	ids map[string]string

	// req is the decode destination. Actors keeps its backing array
	// across requests (zeroed between them) and Operating is cleared,
	// not reallocated.
	req     RateRequest
	actorsW []world.Agent // lowered world-model actors

	est  *core.Estimator
	pred predict.Predictor // pre-boxed: converting per call allocates
	cfg  safety.ControllerConfig
	l0   float64
	ctrl *safety.Controller
	esc  core.EstimateScratch

	// Computed per request, consumed by the response writers.
	e        core.Estimate
	rates    map[string]float64
	sumFPR   float64
	maxFPR   float64
	hasCheck bool
	chk      safety.CheckResult

	analyzed []string // sensor.AnalyzedCameras(), cached
	keys     []string // sorted map keys scratch for the binary encoder

	// shard is this scratch's stable histogram shard hint: pooled
	// scratches spread across shards once and stay there, avoiding
	// both rotor contention and cross-scratch false sharing.
	shard uint32
}

var rateShardRotor atomic.Uint32

var rateScratchPool = sync.Pool{New: func() any { return newRateScratch() }}

func newRateScratch() *rateScratch {
	est := core.NewEstimator()
	cfg := safety.DefaultControllerConfig()
	var pred predict.Predictor = predict.MultiHypothesis{Horizon: est.Params.Horizon, Dt: 0.1}
	sc := &rateScratch{
		body:     make([]byte, 0, 4096),
		out:      make([]byte, 0, 1024),
		ids:      make(map[string]string, 64),
		est:      est,
		pred:     pred,
		cfg:      cfg,
		l0:       1 / cfg.MaxFPR,
		ctrl:     safety.NewController(est, pred, cfg),
		analyzed: sensor.AnalyzedCameras(),
		shard:    rateShardRotor.Add(1) % hist.NumShards,
	}
	sc.req.Operating = make(map[string]float64, 8)
	return sc
}

func getRateScratch() *rateScratch   { return rateScratchPool.Get().(*rateScratch) }
func putRateScratch(sc *rateScratch) { rateScratchPool.Put(sc) }

// reset restores the decode destination to the all-zero state a fresh
// json.Unmarshal target would have. The actor backing array is zeroed
// through its full capacity: encoding/json decodes an array element
// into whatever that slot of the backing array holds, so a stale actor
// would leak into fields the next request leaves out. A JSON
// "operating":null leaves the map nil, and the binary decoder writes
// into it, so it is remade here.
func (sc *rateScratch) reset() {
	sc.req.Time = 0
	sc.req.Ego = AgentState{}
	as := sc.req.Actors[:cap(sc.req.Actors)]
	for i := range as {
		as[i] = AgentState{}
	}
	sc.req.Actors = as[:0]
	if sc.req.Operating == nil {
		sc.req.Operating = make(map[string]float64, 8)
	}
	clear(sc.req.Operating)
	if len(sc.ids) > maxInternEntries {
		clear(sc.ids)
	}
}

// intern returns the canonical string for b, allocating only the first
// time a given ID or key is seen by this scratch.
func (sc *rateScratch) intern(b []byte) string {
	if s, ok := sc.ids[string(b)]; ok { // compiler-optimized, no alloc
		return s
	}
	s := string(b)
	sc.ids[s] = s
	return s
}

// readBody drains r into the reused body buffer.
func (sc *rateScratch) readBody(r io.Reader) error {
	sc.body = sc.body[:0]
	for {
		if len(sc.body) == cap(sc.body) {
			sc.body = append(sc.body, 0)[:len(sc.body)]
		}
		n, err := r.Read(sc.body[len(sc.body):cap(sc.body)])
		sc.body = sc.body[:len(sc.body)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// serveRate runs the pooled path end to end: read, decode (JSON or
// binary per Content-Type), validate, compute, and on the binary wire
// encode. On success it returns (0, "") with a binary response encoded
// in sc.out, or a JSON one ready for sc.response; otherwise the HTTP
// status and message for WriteError. Error paths may allocate — they
// are off the hot path. It runs inside the admission gate; the gate is
// left by a defer, so a panic below cannot leave it held and park
// every later campaign Yield for its full MaxWait.
func (s *Server) serveRate(sc *rateScratch, body io.Reader, binary bool) (int, string) {
	s.gate.Enter()
	defer s.gate.Leave()
	sc.reset()
	if err := sc.readBody(body); err != nil {
		return 400, "bad rate request: " + err.Error()
	}
	if binary {
		if err := sc.decodeBinaryRequest(); err != nil {
			return 400, "bad rate request: " + err.Error()
		}
	} else if err := json.NewDecoder(bytes.NewReader(sc.body)).Decode(&sc.req); err != nil {
		return 400, "bad rate request: " + err.Error()
	}

	if sc.req.Ego.ID == "" {
		sc.req.Ego.ID = world.EgoID
	}
	ego := agentFromWire(sc.req.Ego)
	sc.actorsW = sc.actorsW[:0]
	for i := range sc.req.Actors {
		if sc.req.Actors[i].ID == "" {
			return 400, fmt.Sprintf("actor %d: missing id", i)
		}
		sc.actorsW = append(sc.actorsW, agentFromWire(sc.req.Actors[i]))
	}
	if err := ego.Validate(); err != nil {
		return 400, "ego: " + err.Error()
	}
	for i := range sc.actorsW {
		if err := sc.actorsW[i].Validate(); err != nil {
			return 400, err.Error()
		}
	}

	// Same semantics as a fresh estimator + controller per request
	// (the endpoint is stateless); Reset clears the hysteresis state
	// while keeping capacity.
	sc.est.EstimateOnlineInto(&sc.e, &sc.esc, sc.req.Time, ego, sc.actorsW, sc.pred, sc.l0)
	sc.ctrl.Reset()
	sc.rates = sc.ctrl.RatesFromEstimateReuse(sc.req.Time, ego, sc.actorsW, sc.e)
	sc.sumFPR = sc.e.SumFPR(sc.analyzed)
	sc.maxFPR = sc.e.MaxFPR(sc.analyzed)
	sc.hasCheck = len(sc.req.Operating) > 0
	if sc.hasCheck {
		safety.CheckInto(&sc.chk, sc.e, sc.req.Operating)
	}

	if binary {
		sc.encodeBinaryResponse()
	}
	return 0, ""
}

// response builds the JSON wire response from the computed estimate.
// Its maps are the scratch's own, so it must be encoded before the
// scratch returns to the pool.
func (sc *rateScratch) response() RateResponse {
	resp := RateResponse{
		Time:      sc.e.Time,
		CameraFPR: sc.e.CameraFPR,
		SumFPR:    sc.sumFPR,
		MaxFPR:    sc.maxFPR,
		Rates:     sc.rates,
	}
	if sc.hasCheck {
		rc := RateCheck{OK: sc.chk.OK, Action: sc.chk.Action.String()}
		for _, a := range sc.chk.Alarms {
			rc.Alarms = append(rc.Alarms, RateAlarm{Camera: a.Camera, Required: a.Required, Operating: a.Operating})
		}
		resp.Check = &rc
	}
	return resp
}
