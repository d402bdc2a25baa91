package scenario

import (
	"fmt"
	"math/rand"

	"repro/internal/behavior"
	"repro/internal/perception"
	"repro/internal/road"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/vehicle"
	"repro/internal/world"
)

// jitterer perturbs scenario geometry deterministically per seed.
type jitterer struct{ rng *rand.Rand }

func newJitterer(seed int64) jitterer {
	return jitterer{rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
}

// val returns base perturbed by up to ±frac (relative).
func (j jitterer) val(base, frac float64) float64 {
	return base * (1 + frac*(2*j.rng.Float64()-1))
}

// Val is a possibly-jittered scalar in a Spec: it evaluates to
// Base + Jit·(1 + Frac·U) with U uniform in [-1, 1], drawn from the
// compile seed's jitter stream. A Val with Frac == 0 is fully
// deterministic and consumes no random draw, so adding deterministic
// parameters to a spec never shifts the jitter of later ones.
type Val struct {
	Base float64 // deterministic addend
	Jit  float64 // jittered term's magnitude
	Frac float64 // relative jitter amplitude; 0 = deterministic
}

// C is a constant (never-jittered) Val.
func C(x float64) Val { return Val{Base: x} }

// J is a purely jittered Val: base·(1 + frac·U).
func J(base, frac float64) Val { return Val{Jit: base, Frac: frac} }

// JPlus offsets a jittered term by a deterministic base:
// base + jit·(1 + frac·U). Used for e.g. "the obstacle station minus a
// jittered reveal gap".
func JPlus(base, jit, frac float64) Val { return Val{Base: base, Jit: jit, Frac: frac} }

// Bounds returns the interval the Val can evaluate to.
func (v Val) Bounds() (lo, hi float64) {
	a := v.Base + v.Jit*(1-v.Frac)
	b := v.Base + v.Jit*(1+v.Frac)
	if a > b {
		a, b = b, a
	}
	return a, b
}

// evaluator draws jitter and records every evaluated value for the
// property tests (nil info skips recording).
type evaluator struct {
	j    jitterer
	info *CompileInfo
}

func (e *evaluator) val(where string, v Val) float64 {
	out := v.Base
	if v.Frac != 0 {
		out += e.j.val(v.Jit, v.Frac)
	} else {
		out += v.Jit
	}
	if e.info != nil {
		e.info.Values = append(e.info.Values, EvaluatedVal{Where: where, Decl: v, Value: out})
	}
	return out
}

// CompileInfo records every jitter-evaluated scalar of one compilation,
// so tests can assert determinism and declared-range containment
// without reaching into behavior closures.
type CompileInfo struct {
	Name     string
	EgoSpeed float64 // m/s
	Values   []EvaluatedVal
}

// EvaluatedVal is one evaluated Spec scalar.
type EvaluatedVal struct {
	Where string // e.g. "actor lead stage 0 trigger"
	Decl  Val
	Value float64
}

// RoadDef declares the scenario road: a straight segment, or a lead-in
// followed by a constant-radius left curve (the paper's curved ODD).
type RoadDef struct {
	Lanes  int
	Length float64 // straight road length, m

	Curved bool
	LeadIn float64 // straight lead-in before the curve, m
	Radius float64 // curve radius, m (positive: left turn)
	ArcLen float64 // curve length, m
}

func (rd RoadDef) build() *road.Road {
	if rd.Curved {
		return road.NewCurved(rd.Lanes, rd.LeadIn, rd.Radius, rd.ArcLen)
	}
	return road.NewStraight(rd.Lanes, rd.Length)
}

// ActorKind selects the vehicle parameter preset of an actor.
type ActorKind int

// Actor parameter presets.
const (
	KindCar ActorKind = iota
	KindTruck
	KindObstacle
	KindCustom // params taken from ActorDef.Custom
)

func (k ActorKind) params(custom vehicle.Params) vehicle.Params {
	switch k {
	case KindTruck:
		return vehicle.Truck()
	case KindObstacle:
		return vehicle.StaticObstacle()
	case KindCustom:
		return custom
	default:
		return vehicle.Car()
	}
}

// TriggerKind selects when a scripted stage starts.
type TriggerKind int

// Trigger kinds, mirroring package behavior's trigger constructors.
const (
	TrigImmediately   TriggerKind = iota
	TrigAtTime                    // Arg: simulation time, s
	TrigAtStation                 // Arg: actor station, m
	TrigGapToEgoAbove             // Arg: actor lead over ego, m
	TrigGapToEgoBelow             // Arg: actor lead over ego, m
	TrigEgoWithin                 // Arg: |actor − ego| station distance, m
)

// TriggerDef declares a stage trigger.
type TriggerDef struct {
	Kind TriggerKind
	Arg  Val
}

// ActionKind selects the stage maneuver.
type ActionKind int

// Action kinds, mirroring package behavior's actions.
const (
	ActLaneChange ActionKind = iota
	ActBrakeTo
	ActAccelTo
	ActMatchBeside
	ActFollowEgo
	ActDrift
)

// ActionDef declares one maneuver. Only the fields of the selected Kind
// are read; speed targets are ego-speed factors unless TargetAbsolute.
type ActionDef struct {
	Kind ActionKind

	TargetLane int // LaneChange
	Duration   Val // LaneChange / Drift: seconds

	Target         Val  // BrakeTo / AccelTo speed target
	TargetAbsolute bool // Target in m/s instead of ×(ego speed)
	Rate           Val  // BrakeTo decel / AccelTo accel magnitude, m/s²

	Offset             Val     // MatchBeside OffsetS / FollowEgo Gap, m
	MaxAccel, MaxBrake float64 // MatchBeside / FollowEgo envelopes

	LatVel Val // Drift lateral velocity, m/s
}

// StageDef pairs a trigger with an action.
type StageDef struct {
	When TriggerDef
	Do   ActionDef
}

// ActorDef declares one scripted actor: parameter preset, spawn pose
// (lane center plus optional lateral offset at a station), initial
// speed, and trigger-gated stages.
type ActorDef struct {
	ID            string
	Kind          ActorKind
	Custom        vehicle.Params // KindCustom only
	Lane          int
	DOffset       float64 // extra lateral offset from the lane center, m
	S             Val     // initial station, m
	Speed         Val     // ego-speed factor unless SpeedAbsolute
	SpeedAbsolute bool
	Stages        []StageDef
}

// Spec is a declarative, parameterized driving scenario. It compiles to
// a sim.Config for a given (FPR, seed): every jittered Val draws from
// the seed's jitter stream in declaration order, so compilation is
// deterministic per (spec, fpr, seed) and arbitrarily many distinct
// scenarios can be generated, registered, and cached by content.
type Spec struct {
	Name        string
	Description string
	Tags        []string
	EgoSpeedMPH float64
	// Activity flags as reported in the paper's Table 1.
	Front, Right, Left bool

	Road     RoadDef
	EgoLane  int
	Duration float64 // s
	Actors   []ActorDef

	// Record is the trace recording level compiled into the simulator
	// configuration; sweep-only corpus specs can declare themselves
	// summary-level. The zero value (full) is omitted from the spec's
	// canonical JSON, so adding or defaulting this field changes no
	// existing fingerprint — archived runs recorded before the field
	// existed still hit.
	Record trace.Level `json:",omitempty"`
}

// HasTag reports whether the spec carries the tag.
func (sp Spec) HasTag(tag string) bool {
	for _, t := range sp.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// Compile builds the simulator configuration for one seeded run at the
// given uniform per-camera frame processing rate.
func (sp Spec) Compile(fpr float64, seed int64) sim.Config {
	cfg, _ := sp.compile(fpr, seed, nil)
	return cfg
}

// CompileTraced is Compile plus a record of every evaluated jitter
// value; tests use it to prove determinism and range containment.
func (sp Spec) CompileTraced(fpr float64, seed int64) (sim.Config, *CompileInfo) {
	info := &CompileInfo{Name: sp.Name}
	cfg, info := sp.compile(fpr, seed, info)
	return cfg, info
}

func (sp Spec) compile(fpr float64, seed int64, info *CompileInfo) (sim.Config, *CompileInfo) {
	ev := &evaluator{j: newJitterer(seed), info: info}
	v := units.MPHToMPS(sp.EgoSpeedMPH)
	if info != nil {
		info.EgoSpeed = v
	}
	r := sp.Road.build()
	cfg := baseConfig(sp.Name, fpr, seed, r, sp.EgoLane, v)
	cfg.Duration = sp.Duration
	cfg.Record = sp.Record

	for _, a := range sp.Actors {
		where := "actor " + a.ID
		s := ev.val(where+" init.s", a.S)
		d := r.LaneCenterOffset(a.Lane) + a.DOffset
		speed := ev.val(where+" init.speed", a.Speed)
		if !a.SpeedAbsolute {
			speed *= v
		}
		spec := sim.ActorSpec{
			ID:     a.ID,
			Params: a.Kind.params(a.Custom),
			Init:   vehicle.FrenetState{S: s, D: d, Speed: speed},
		}
		if len(a.Stages) > 0 {
			stages := make([]behavior.Stage, len(a.Stages))
			for i, st := range a.Stages {
				sw := fmt.Sprintf("%s stage %d", where, i)
				stages[i] = behavior.Stage{
					When: st.When.build(ev, sw+" trigger"),
					Do:   st.Do.build(ev, sw, v),
				}
			}
			spec.Script = behavior.NewScript(stages...)
		}
		cfg.Actors = append(cfg.Actors, spec)
	}
	return cfg, info
}

func (td TriggerDef) build(ev *evaluator, where string) behavior.Trigger {
	switch td.Kind {
	case TrigAtTime:
		return behavior.AtTime(ev.val(where, td.Arg))
	case TrigAtStation:
		return behavior.AtStation(ev.val(where, td.Arg))
	case TrigGapToEgoAbove:
		return behavior.WhenGapToEgoAbove(ev.val(where, td.Arg))
	case TrigGapToEgoBelow:
		return behavior.WhenGapToEgoBelow(ev.val(where, td.Arg))
	case TrigEgoWithin:
		return behavior.WhenEgoWithin(ev.val(where, td.Arg))
	default:
		return behavior.Immediately()
	}
}

// build evaluates the action's parameters in declaration order (target
// before rate, lateral velocity before duration) so the jitter stream
// matches the hand-written builders this compiler replaced.
func (ad ActionDef) build(ev *evaluator, where string, egoSpeed float64) behavior.Action {
	switch ad.Kind {
	case ActBrakeTo:
		target := ev.val(where+" target", ad.Target)
		if !ad.TargetAbsolute {
			target *= egoSpeed
		}
		return &behavior.BrakeTo{Target: target, Decel: ev.val(where+" rate", ad.Rate)}
	case ActAccelTo:
		target := ev.val(where+" target", ad.Target)
		if !ad.TargetAbsolute {
			target *= egoSpeed
		}
		return &behavior.AccelTo{Target: target, Accel: ev.val(where+" rate", ad.Rate)}
	case ActMatchBeside:
		return &behavior.MatchBeside{
			OffsetS:  ev.val(where+" offset", ad.Offset),
			MaxAccel: ad.MaxAccel,
			MaxBrake: ad.MaxBrake,
		}
	case ActFollowEgo:
		return &behavior.FollowEgo{
			Gap:      ev.val(where+" offset", ad.Offset),
			MaxAccel: ad.MaxAccel,
			MaxBrake: ad.MaxBrake,
		}
	case ActDrift:
		return &behavior.Drift{
			LatVel:   ev.val(where+" latvel", ad.LatVel),
			Duration: ev.val(where+" duration", ad.Duration),
		}
	default: // ActLaneChange
		return &behavior.LaneChange{
			TargetLane: ad.TargetLane,
			Duration:   ev.val(where+" duration", ad.Duration),
		}
	}
}

// Scenario wraps a copy of the spec as a Scenario, fingerprinting it
// once: the fingerprint keys the engine's memory cache and the
// persistent store, registered or not.
func (sp Spec) Scenario() Scenario {
	return Scenario{Spec: &sp, Fingerprint: SpecFingerprint(sp)}
}

// Validate reports static spec errors: malformed road, out-of-road
// lanes, duplicate actors, negative-speed or out-of-range jitter
// declarations. Seed-dependent validity (spawn overlaps, simulator
// checks) is covered by compiling and sim.ValidateConfig.
func (sp Spec) Validate() error {
	if sp.Name == "" {
		return fmt.Errorf("spec: empty name")
	}
	if sp.EgoSpeedMPH <= 0 {
		return fmt.Errorf("spec %s: ego speed %v mph, need > 0", sp.Name, sp.EgoSpeedMPH)
	}
	if sp.Duration <= 0 {
		return fmt.Errorf("spec %s: duration %v, need > 0", sp.Name, sp.Duration)
	}
	if sp.Record > trace.LevelOff {
		return fmt.Errorf("spec %s: invalid recording level %d", sp.Name, sp.Record)
	}
	if sp.Road.Lanes < 1 {
		return fmt.Errorf("spec %s: %d lanes, need >= 1", sp.Name, sp.Road.Lanes)
	}
	if sp.Road.Curved {
		if sp.Road.Radius <= 0 || sp.Road.ArcLen <= 0 || sp.Road.LeadIn < 0 {
			return fmt.Errorf("spec %s: invalid curved road %+v", sp.Name, sp.Road)
		}
	} else if sp.Road.Length <= 0 {
		return fmt.Errorf("spec %s: road length %v, need > 0", sp.Name, sp.Road.Length)
	}
	if sp.EgoLane < 0 || sp.EgoLane >= sp.Road.Lanes {
		return fmt.Errorf("spec %s: ego lane %d outside [0,%d)", sp.Name, sp.EgoLane, sp.Road.Lanes)
	}
	ids := map[string]bool{world.EgoID: true}
	for _, a := range sp.Actors {
		if a.ID == "" {
			return fmt.Errorf("spec %s: actor with empty ID", sp.Name)
		}
		if ids[a.ID] {
			return fmt.Errorf("spec %s: duplicate actor %q", sp.Name, a.ID)
		}
		ids[a.ID] = true
		if a.Lane < 0 || a.Lane >= sp.Road.Lanes {
			return fmt.Errorf("spec %s: actor %s lane %d outside [0,%d)", sp.Name, a.ID, a.Lane, sp.Road.Lanes)
		}
		if a.Kind == KindCustom && (a.Custom.Length <= 0 || a.Custom.Width <= 0) {
			return fmt.Errorf("spec %s: actor %s custom params %+v", sp.Name, a.ID, a.Custom)
		}
		if lo, _ := a.Speed.Bounds(); lo < 0 {
			return fmt.Errorf("spec %s: actor %s speed can go negative (%+v)", sp.Name, a.ID, a.Speed)
		}
		for _, v := range append([]Val{a.S, a.Speed}, stageVals(a.Stages)...) {
			if v.Frac < 0 || v.Frac >= 1 {
				return fmt.Errorf("spec %s: actor %s jitter fraction %v outside [0,1)", sp.Name, a.ID, v.Frac)
			}
		}
		for i, st := range a.Stages {
			if st.Do.Kind == ActLaneChange && (st.Do.TargetLane < 0 || st.Do.TargetLane >= sp.Road.Lanes) {
				return fmt.Errorf("spec %s: actor %s stage %d lane change to %d outside [0,%d)",
					sp.Name, a.ID, i, st.Do.TargetLane, sp.Road.Lanes)
			}
		}
	}
	return nil
}

func stageVals(stages []StageDef) []Val {
	var out []Val
	for _, st := range stages {
		out = append(out, st.When.Arg, st.Do.Duration, st.Do.Target, st.Do.Rate, st.Do.Offset, st.Do.LatVel)
	}
	return out
}

func baseConfig(name string, fpr float64, seed int64, r *road.Road, egoLane int, egoSpeed float64) sim.Config {
	return sim.Config{
		Name:            name,
		Road:            r,
		EgoInit:         vehicle.FrenetState{S: 0, D: r.LaneCenterOffset(egoLane), Speed: egoSpeed},
		EgoParams:       vehicle.Car(),
		DesiredSpeed:    egoSpeed,
		Duration:        30,
		FPR:             fpr,
		Perception:      perception.DefaultConfig(),
		Seed:            seed,
		StopOnCollision: true,
	}
}
