// Package safety implements the Zhuyi-based AV system of paper §3.2
// (Figure 3): the world model and predicted trajectories feed the Zhuyi
// model online; its per-camera processing-rate estimates drive
//
//   - a safety check — an alarm when any camera's operating rate falls
//     below its estimated requirement, with the paper's three response
//     actions; and
//   - work prioritization — a rate controller that allocates a
//     constrained total frame budget across cameras in proportion to
//     the estimates instead of uniformly.
//
// The controller adds two engineering guards around the raw estimates:
// a per-camera rate floor (a camera whose FOV is empty still needs
// frames to discover new actors — the paper lists yet-to-be-detected
// objects as future work) and one-sided hysteresis (rates rise
// immediately but decay slowly, bridging the confirmation window after
// a threat leaves the world model while a new one is being confirmed).
package safety

import (
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/world"
)

// Alarm reports one camera operating below its Zhuyi requirement.
type Alarm struct {
	Time      float64
	Camera    string
	Required  float64 // estimated minimum FPR
	Operating float64 // current FPR
}

// Severity is the relative shortfall (required/operating − 1).
func (a Alarm) Severity() float64 {
	if a.Operating <= 0 {
		return math.Inf(1)
	}
	return a.Required/a.Operating - 1
}

// Action is the paper's safety-check response (§3.2).
type Action int

const (
	// ActionNone — all cameras meet their requirements.
	ActionNone Action = iota
	// ActionRaiseRate — request higher rates for the failing cameras
	// (response 3 in the paper).
	ActionRaiseRate
	// ActionLimitedFunctionality — shed non-essential work such as
	// infotainment (response 2).
	ActionLimitedFunctionality
	// ActionEmergencyBackup — activate the emergency back-up system
	// (response 1).
	ActionEmergencyBackup
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case ActionNone:
		return "none"
	case ActionRaiseRate:
		return "raise-rate"
	case ActionLimitedFunctionality:
		return "limited-functionality"
	case ActionEmergencyBackup:
		return "emergency-backup"
	default:
		return "unknown"
	}
}

// CheckResult is one safety-check evaluation.
type CheckResult struct {
	Time   float64
	OK     bool
	Alarms []Alarm
	Action Action
}

// Check compares the operating per-camera rates against a Zhuyi
// estimate and escalates through the paper's three actions as the worst
// shortfall grows.
func Check(est core.Estimate, operating map[string]float64) CheckResult {
	var res CheckResult
	CheckInto(&res, est, operating)
	return res
}

// CheckInto is Check writing into dst, reusing dst.Alarms' capacity.
// The pooled /v1/rate path evaluates posted operating rates without
// allocating; dst's previous contents are overwritten.
func CheckInto(dst *CheckResult, est core.Estimate, operating map[string]float64) {
	dst.Time = est.Time
	dst.OK = true
	dst.Action = ActionNone
	dst.Alarms = dst.Alarms[:0]
	worst := 0.0
	for cam, required := range est.CameraFPR {
		op := operating[cam]
		if op+1e-9 >= required {
			continue
		}
		alarm := Alarm{Time: est.Time, Camera: cam, Required: required, Operating: op}
		dst.Alarms = append(dst.Alarms, alarm)
		if s := alarm.Severity(); s > worst {
			worst = s
		}
	}
	slices.SortFunc(dst.Alarms, func(a, b Alarm) int { return strings.Compare(a.Camera, b.Camera) })
	if len(dst.Alarms) == 0 {
		return
	}
	dst.OK = false
	switch {
	case worst >= 2: // operating at less than a third of the requirement
		dst.Action = ActionEmergencyBackup
	case worst >= 0.5:
		dst.Action = ActionLimitedFunctionality
	default:
		dst.Action = ActionRaiseRate
	}
}

// ControllerConfig tunes the work-prioritizing rate controller.
type ControllerConfig struct {
	Margin   float64 // headroom multiplier on the estimates (default 2)
	MinFPR   float64 // per-camera floor (default 1)
	MaxFPR   float64 // per-camera cap (default 30)
	Budget   float64 // total FPR across all cameras; 0 = unconstrained
	DecaySec float64 // max rate decrease per second (default 5); rises are instant
}

// DefaultControllerConfig returns the configuration used by the
// examples and benchmarks. The margin of 3 keeps cameras that watch an
// active threat fast enough that a newly revealed actor behind it (the
// cut-out pattern) confirms before the ego's braking budget is spent.
func DefaultControllerConfig() ControllerConfig {
	return ControllerConfig{Margin: 3, MinFPR: 1, MaxFPR: 30, DecaySec: 4}
}

// Controller is a sim.RateController driven by online Zhuyi estimates.
type Controller struct {
	Estimator *core.Estimator
	Predictor predict.Predictor
	Cfg       ControllerConfig

	lastTime  float64
	lastRates map[string]float64
	checks    []CheckResult
	spare     map[string]float64 // recycled by RatesFromEstimateReuse

	// Rates' estimate and estimator storage, refilled at every control
	// step. Check copies what it keeps out of the estimate.
	est     core.Estimate
	scratch core.EstimateScratch
}

// NewController builds a controller over the estimator's cameras.
func NewController(est *core.Estimator, pred predict.Predictor, cfg ControllerConfig) *Controller {
	if cfg.Margin <= 0 {
		cfg.Margin = 2
	}
	if cfg.MinFPR <= 0 {
		cfg.MinFPR = 1
	}
	if cfg.MaxFPR <= 0 {
		cfg.MaxFPR = 30
	}
	if cfg.DecaySec <= 0 {
		cfg.DecaySec = 5
	}
	return &Controller{Estimator: est, Predictor: pred, Cfg: cfg, lastRates: map[string]float64{}}
}

// Rates implements sim.RateController: it runs the online Zhuyi
// estimate on the perceived world model, applies margin, floor, cap,
// hysteresis, and the optional budget, and logs a safety check against
// the rates that were operating until now.
func (c *Controller) Rates(now float64, ego world.Agent, wm []world.Agent) map[string]float64 {
	// l0: the controller aims to run each camera at its estimate, so the
	// conservative choice is the smallest latency it could be granted.
	l0 := 1 / c.Cfg.MaxFPR
	c.Estimator.EstimateOnlineInto(&c.est, &c.scratch, now, ego, wm, c.Predictor, l0)
	return c.RatesFromEstimate(now, ego, wm, c.est)
}

// RatesFromEstimate is Rates with the online estimate already in hand.
// Callers that need both the raw estimate and the allocation — the
// campaign service's POST /v1/rate answers with both — use it to avoid
// running the estimator twice on the same snapshot. The estimate must
// be for this instant; ego and wm, the snapshot it was computed from,
// do not enter the allocation.
func (c *Controller) RatesFromEstimate(now float64, ego world.Agent, wm []world.Agent, est core.Estimate) map[string]float64 {
	return c.ratesFromEstimate(make(map[string]float64, len(est.CameraFPR)), now, est)
}

// RatesFromEstimateReuse is RatesFromEstimate returning an
// internally-owned map that stays valid only until the next call: the
// controller double-buffers its rate maps, so steady-state calls do
// not allocate. A controller used through this method must not also
// hand out maps via the allocating RatesFromEstimate (callers could
// observe them mutating). The pooled /v1/rate path owns its
// controllers outright and encodes the result before returning.
func (c *Controller) RatesFromEstimateReuse(now float64, ego world.Agent, wm []world.Agent, est core.Estimate) map[string]float64 {
	desired := c.spare
	if desired == nil {
		desired = make(map[string]float64, len(est.CameraFPR))
	}
	clear(desired)
	prev := c.lastRates
	out := c.ratesFromEstimate(desired, now, est)
	c.spare = prev
	return out
}

// Reset returns the controller to its just-constructed state (no rate
// history, no hysteresis baseline, empty check log) while keeping its
// maps' and slices' capacity. Pooled serving contexts Reset between
// requests so each request behaves like a fresh controller.
func (c *Controller) Reset() {
	clear(c.lastRates)
	c.lastTime = 0
	c.checks = c.checks[:0]
}

func (c *Controller) ratesFromEstimate(desired map[string]float64, now float64, est core.Estimate) map[string]float64 {
	if len(c.lastRates) > 0 {
		c.checks = append(c.checks, Check(est, c.lastRates))
	}

	dt := now - c.lastTime
	if dt < 0 {
		dt = 0
	}
	for cam, f := range est.CameraFPR {
		var r float64
		if !est.CameraThreat[cam] {
			// No actor with a conflicting trajectory in this camera's
			// FOV: run at the floor. Margin headroom is reserved for
			// cameras watching real threats.
			r = c.Cfg.MinFPR
		} else {
			r = clamp(f*c.Cfg.Margin, c.Cfg.MinFPR, c.Cfg.MaxFPR)
		}
		if prev, ok := c.lastRates[cam]; ok && r < prev {
			// One-sided hysteresis: decay slowly toward the lower rate.
			floor := prev - c.Cfg.DecaySec*dt
			if r < floor {
				r = floor
			}
		}
		desired[cam] = r
	}
	if c.Cfg.Budget > 0 {
		desired = c.applyBudget(desired, est)
	}
	c.lastRates = desired
	c.lastTime = now
	return desired
}

// applyBudget scales rates into the total budget, preserving each
// camera's raw Zhuyi estimate as a floor when the budget allows: safety
// demand is met first, headroom is distributed proportionally.
func (c *Controller) applyBudget(desired map[string]float64, est core.Estimate) map[string]float64 {
	total := 0.0
	for _, r := range desired {
		total += r
	}
	if total <= c.Cfg.Budget {
		return desired
	}
	// First pass: everyone gets max(MinFPR, raw estimate) — the safety
	// floor.
	out := make(map[string]float64, len(desired))
	floorSum := 0.0
	for cam := range desired {
		f := clamp(est.CameraFPR[cam], c.Cfg.MinFPR, c.Cfg.MaxFPR)
		out[cam] = f
		floorSum += f
	}
	remaining := c.Cfg.Budget - floorSum
	if remaining <= 0 {
		// Budget cannot even cover the estimates: scale the floors
		// proportionally (the safety check will raise alarms).
		scale := c.Cfg.Budget / floorSum
		for cam := range out {
			out[cam] = math.Max(c.Cfg.MinFPR, out[cam]*scale)
		}
		return out
	}
	// Second pass: distribute the headroom proportionally to the desired
	// excess over the floor.
	excessSum := 0.0
	for cam, r := range desired {
		if r > out[cam] {
			excessSum += r - out[cam]
		}
	}
	if excessSum <= 0 {
		return out
	}
	for cam, r := range desired {
		if r > out[cam] {
			out[cam] += (r - out[cam]) / excessSum * remaining
		}
	}
	return out
}

// Checks returns the safety-check log accumulated across the run.
func (c *Controller) Checks() []CheckResult { return c.checks }

// AlarmCount returns the number of evaluations that raised any alarm.
func (c *Controller) AlarmCount() int {
	n := 0
	for _, ck := range c.checks {
		if !ck.OK {
			n++
		}
	}
	return n
}

// WorstAction returns the most severe action recommended across the run.
func (c *Controller) WorstAction() Action {
	worst := ActionNone
	for _, ck := range c.checks {
		if ck.Action > worst {
			worst = ck.Action
		}
	}
	return worst
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// UniformRates is a trivial sim.RateController that divides a total
// budget evenly — the baseline the prioritizer is compared against.
type UniformRates struct {
	Cameras []string
	Budget  float64
}

// Rates implements sim.RateController.
func (u UniformRates) Rates(float64, world.Agent, []world.Agent) map[string]float64 {
	out := make(map[string]float64, len(u.Cameras))
	if len(u.Cameras) == 0 {
		return out
	}
	per := u.Budget / float64(len(u.Cameras))
	for _, cam := range u.Cameras {
		out[cam] = per
	}
	return out
}
