package scenario

import (
	"fmt"
	"sync"
)

// Well-known registry tags.
const (
	// TagTable1 marks the paper's nine validation scenarios.
	TagTable1 = "table1"
	// TagVariant marks the extra operational-design-domain variants.
	TagVariant = "variant"
	// TagGenerated marks procedurally generated scenarios.
	TagGenerated = "generated"
)

// Registry is a named scenario catalog: specs register once under a
// unique name with free-form tags and are looked up by name or listed
// by tag, in registration order. It is safe for concurrent use. Names
// resolve requests; caches key on the spec fingerprint instead.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]Scenario
	order  []string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Scenario)}
}

// RegisterSpec validates and registers a declarative spec under its
// name; the spec's Tags are what List filters on. Duplicate names are
// rejected: every by-name API depends on a name identifying exactly
// one scenario.
func (r *Registry) RegisterSpec(sp Spec) error {
	if err := sp.Validate(); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	sc := sp.Scenario()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[sc.Name]; ok {
		return fmt.Errorf("registry: scenario %q already registered", sc.Name)
	}
	r.byName[sc.Name] = sc
	r.order = append(r.order, sc.Name)
	return nil
}

// mustRegisterSpec is for the built-in catalogs, whose specs are
// statically known to be valid and unique.
func (r *Registry) mustRegisterSpec(sp Spec) {
	if err := r.RegisterSpec(sp); err != nil {
		panic(err)
	}
}

// Lookup returns the named scenario.
func (r *Registry) Lookup(name string) (Scenario, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	sc, ok := r.byName[name]
	return sc, ok
}

// List returns the scenarios carrying every given tag (all scenarios
// when no tags are given), in registration order.
func (r *Registry) List(tags ...string) []Scenario {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Scenario
scenarios:
	for _, name := range r.order {
		sc := r.byName[name]
		for _, tag := range tags {
			if !sc.HasTag(tag) {
				continue scenarios
			}
		}
		out = append(out, sc)
	}
	return out
}

// Names returns the names of List(tags...).
func (r *Registry) Names(tags ...string) []string {
	scs := r.List(tags...)
	out := make([]string, len(scs))
	for i, sc := range scs {
		out[i] = sc.Name
	}
	return out
}

var defaultRegistry = struct {
	once sync.Once
	r    *Registry
}{}

// Default returns the process-wide registry, seeded on first use with
// the paper's nine Table-1 scenarios (TagTable1) and the extra ODD
// variants (TagVariant). Generated scenarios register here to become
// addressable by name through the facade and the CLIs.
func Default() *Registry {
	defaultRegistry.once.Do(func() {
		r := NewRegistry()
		for _, sp := range Table1Specs() {
			r.mustRegisterSpec(sp)
		}
		for _, sp := range VariantSpecs() {
			r.mustRegisterSpec(sp)
		}
		defaultRegistry.r = r
	})
	return defaultRegistry.r
}

// Lookup finds a scenario by name in the default registry — paper
// scenarios, variants, and anything registered since (e.g. generated
// corpora).
func Lookup(name string) (Scenario, bool) { return Default().Lookup(name) }

// RegisterSpec validates and adds a spec to the default registry.
func RegisterSpec(sp Spec) error { return Default().RegisterSpec(sp) }
