// Package scenario is the procedural scenario subsystem: a declarative
// Spec language for parameterized driving scenarios, a named Registry
// with tag-based listing, and a seeded Generator that samples spec
// families into arbitrarily large scenario corpora.
//
// # Spec
//
// A Spec declares a scenario — road geometry, ego speed and lane,
// scripted actors with trigger-gated maneuver stages — with every
// scalar as a possibly-jittered Val. Compile(fpr, seed) lowers the spec
// to a sim.Config: jittered values draw from the seed's jitter stream
// in declaration order, reproducing the run-to-run variance the paper
// averages over ten runs while staying fully deterministic per
// (spec, fpr, seed). CompileTraced additionally records every evaluated
// value, which is how the property tests pin determinism and
// declared-range containment.
//
// # Registry
//
// The Registry maps unique names to spec-backed scenarios, with tags
// (TagTable1, TagVariant, TagGenerated, family names) for listing and
// filtering. Default() is the process-wide catalog, seeded with the
// paper's nine Table-1 scenarios and the extra ODD variants; generated
// scenarios register there to become addressable by name through every
// layer above. Names are for lookup only: the run engine and the store
// key a point on the scenario's spec fingerprint (SpecFingerprint).
//
// # Generator
//
// NewGenerator samples spec families (cut-in, cut-out, following,
// crossing, benign activity) at varied speeds, gaps, braking levels,
// and curvatures, yielding deterministic, uniquely named, valid specs
// for corpus-scale sweeps (see internal/experiments.CorpusSweep).
//
// The nine Table-1 scenarios (Table1Specs) compile byte-for-byte
// equivalent to the original hand-written builders; the golden tests in
// this package prove it against a frozen copy of those builders.
package scenario

import (
	"fmt"

	"repro/internal/sim"
)

// Canonical scenario names, in the paper's Table-1 order.
const (
	CutOut                 = "cut-out"
	CutOutFast             = "cut-out-fast"
	CutIn                  = "cut-in"
	ChallengingCutIn       = "challenging-cut-in"
	ChallengingCutInCurved = "challenging-cut-in-curved"
	VehicleFollowing       = "vehicle-following"
	FrontRightActivity1    = "front-right-activity-1"
	FrontRightActivity2    = "front-right-activity-2"
	FrontRightActivity3    = "front-right-activity-3"
)

// Scenario is a named, parameterized driving scenario: a declarative
// spec and its content fingerprint, built only by Spec.Scenario. The
// spec's fields (Name, Description, EgoSpeedMPH, the activity flags)
// read through the embedded pointer; nothing mutates a spec once it
// is wrapped.
type Scenario struct {
	*Spec
	// Fingerprint is SpecFingerprint of the spec. The engine's memory
	// cache and the persistent store both key a (scenario, FPR, seed)
	// point on it, so any parameter change invalidates cached and
	// archived runs, and two specs that share a name never alias.
	Fingerprint string
}

// Build compiles the spec into a simulator configuration for one
// seeded run at the given uniform per-camera frame processing rate.
func (sc Scenario) Build(fpr float64, seed int64) sim.Config { return sc.Compile(fpr, seed) }

// All returns the nine Table-1 scenarios in the paper's order, from the
// default registry.
func All() []Scenario { return Default().List(TagTable1) }

// ByName returns the named Table-1 scenario. Use Lookup to resolve any
// registered scenario (variants, generated corpora).
func ByName(name string) (Scenario, bool) { return taggedLookup(name, TagTable1) }

// taggedLookup resolves a name in the default registry only when the
// scenario carries the tag.
func taggedLookup(name, tag string) (Scenario, bool) {
	sc, ok := Lookup(name)
	if !ok || !sc.HasTag(tag) {
		return Scenario{}, false
	}
	return sc, true
}

// Names lists the nine Table-1 scenario names in order.
func Names() []string { return Default().Names(TagTable1) }

// Validate compiles every registered scenario once and checks the
// configuration is runnable.
func Validate() error {
	for _, s := range Default().List() {
		cfg := s.Build(30, 1)
		if err := sim.ValidateConfig(cfg); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	return nil
}
