// Package planner implements the ego driving policy used by the
// simulated AV stack: an Intelligent Driver Model (IDM) car-following
// controller for normal operation plus an automatic emergency braking
// (AEB) safety procedure. The paper's Zhuyi model assumes hard braking
// as the safety procedure; AEB is the closed-loop realization of that
// assumption. The planner consumes the *perceived* world model, so its
// reaction time inherits the perception stack's frame-rate-dependent
// latency — the quantity Zhuyi estimates bounds for.
package planner

import (
	"math"

	"repro/internal/road"
	"repro/internal/vehicle"
	"repro/internal/world"
)

// Config tunes the driving policy.
type Config struct {
	DesiredSpeed      float64 // v0: free-road cruising speed, m/s
	TimeHeadway       float64 // T: desired time gap to the lead, s
	MinGap            float64 // s0: standstill bumper gap, m
	MaxAccel          float64 // a: IDM acceleration, m/s²
	ComfortBrake      float64 // b: IDM comfortable deceleration, m/s²
	MaxBrake          float64 // AEB hard-braking deceleration, m/s²
	AEBTrigger        float64 // required decel that arms AEB, m/s²
	AEBRelease        float64 // required decel below which AEB disarms, m/s²
	CorridorHalfWidth float64 // lateral half-width of the ego corridor, m
}

// DefaultConfig returns a policy tuned for the scenario vehicles.
func DefaultConfig(desiredSpeed float64, p vehicle.Params) Config {
	return Config{
		DesiredSpeed:      desiredSpeed,
		TimeHeadway:       1.4,
		MinGap:            2.5,
		MaxAccel:          p.MaxAccel,
		ComfortBrake:      p.ComfortBrake,
		MaxBrake:          p.MaxBrake,
		AEBTrigger:        3.4,
		AEBRelease:        2.0,
		CorridorHalfWidth: 2.2,
	}
}

// Decision is one planning output.
type Decision struct {
	Accel  float64 // commanded longitudinal acceleration, m/s²
	AEB    bool    // hard-braking safety procedure active
	LeadID string  // selected lead vehicle, "" if none
	Gap    float64 // bumper-to-bumper gap to the lead, m
}

// Planner holds policy state (the AEB latch) across steps.
type Planner struct {
	Cfg  Config
	Road *road.Road

	aebActive bool

	// twoSqrtAB caches 2·sqrt(a·b), the IDM interaction denominator —
	// a pure function of the config that idm would otherwise recompute
	// every step. Zero means "not yet derived" (direct struct literals
	// skip New), and idm falls back to computing it on the spot.
	twoSqrtAB float64
}

// New builds a planner.
func New(cfg Config, r *road.Road) *Planner {
	return &Planner{Cfg: cfg, Road: r, twoSqrtAB: 2 * math.Sqrt(cfg.MaxAccel*cfg.ComfortBrake)}
}

// Plan computes the longitudinal command for the ego given its own
// lane-relative state and the perceived world model.
func (p *Planner) Plan(ego vehicle.FrenetState, egoParams vehicle.Params, wm []world.Agent) Decision {
	leadIdx, leadS, gap := p.selectLead(ego, egoParams, wm)

	var d Decision
	if leadIdx < 0 {
		p.aebActive = false
		d.Accel = p.idm(ego.Speed, 0, math.Inf(1))
		d.Gap = math.Inf(1)
		return d
	}

	lead := &wm[leadIdx]
	leadSpeed := p.leadSpeed(lead, leadS)
	d.LeadID = lead.ID
	d.Gap = gap

	// AEB arming: the deceleration needed to slow to the lead's speed
	// within the available gap.
	req := requiredDecel(ego.Speed, leadSpeed, gap-p.Cfg.MinGap)
	switch {
	case gap <= p.Cfg.MinGap/2:
		p.aebActive = true
	case !p.aebActive && req >= p.Cfg.AEBTrigger:
		p.aebActive = true
	case p.aebActive && req <= p.Cfg.AEBRelease && ego.Speed <= leadSpeed+0.5:
		p.aebActive = false
	}

	if p.aebActive {
		d.AEB = true
		d.Accel = -p.Cfg.MaxBrake
		return d
	}

	d.Accel = p.idm(ego.Speed, leadSpeed, gap)
	return d
}

// selectLead picks the nearest perceived agent ahead of the ego inside
// its corridor, returning its index in wm (-1 if none), its projected
// station, and the bumper gap. Tracking the winner by index (and
// carrying its station to leadSpeed) keeps per-candidate Agent copies
// and a duplicate road projection off the per-step path.
func (p *Planner) selectLead(ego vehicle.FrenetState, egoParams vehicle.Params, wm []world.Agent) (int, float64, float64) {
	bestGap := math.Inf(1)
	bestIdx := -1
	bestS := 0.0
	for i := range wm {
		a := &wm[i]
		s, d := p.Road.Frenet(a.Pose.Pos)
		if math.Abs(d-ego.D) > p.Cfg.CorridorHalfWidth {
			continue
		}
		gap := s - ego.S - (egoParams.Length+a.Length)/2
		if gap < -a.Length { // fully behind the ego
			continue
		}
		if gap < bestGap {
			bestGap = gap
			bestIdx = i
			bestS = s
		}
	}
	return bestIdx, bestS, bestGap
}

// leadSpeed projects the lead's velocity onto the road direction at its
// position, so a cut-in actor's lateral motion does not inflate the
// closing-speed estimate. s is the lead's station, already computed by
// selectLead from the identical position.
func (p *Planner) leadSpeed(a *world.Agent, s float64) float64 {
	tangent := p.Road.TangentAt(s)
	v := a.Velocity().Dot(tangent)
	if v < 0 {
		v = 0
	}
	return v
}

// idm is the Intelligent Driver Model acceleration.
func (p *Planner) idm(v, vLead, gap float64) float64 {
	c := &p.Cfg
	// math.Pow with an exact integer exponent reduces to binary
	// exponentiation — x⁴ is computed as (x²)², bit for bit — so the
	// two explicit multiplies below are the identical result without
	// the Pow call's unpacking overhead.
	r := v / max(c.DesiredSpeed, 0.1)
	r2 := r * r
	free := 1 - r2*r2
	if math.IsInf(gap, 1) {
		return c.MaxAccel * free
	}
	if gap <= 0.1 {
		return -c.MaxBrake
	}
	denom := p.twoSqrtAB
	if denom == 0 {
		denom = 2 * math.Sqrt(c.MaxAccel*c.ComfortBrake)
	}
	dv := v - vLead
	sStar := c.MinGap + max(0, v*c.TimeHeadway+v*dv/denom)
	a := c.MaxAccel * (free - (sStar/gap)*(sStar/gap))
	return max(-c.MaxBrake, a)
}

// requiredDecel returns the constant deceleration needed to slow from v
// to vLead within dist meters. Non-positive distances with a positive
// speed excess mean a collision is already unavoidable at any finite
// deceleration; a large sentinel is returned.
func requiredDecel(v, vLead, dist float64) float64 {
	if vLead < 0 {
		vLead = 0
	}
	if v <= vLead {
		return 0
	}
	if dist <= 0.1 {
		return 1e3
	}
	return (v*v - vLead*vLead) / (2 * dist)
}
