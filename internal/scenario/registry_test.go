package scenario

import (
	"strings"
	"testing"
)

func TestRegistryRegisterLookupList(t *testing.T) {
	r := NewRegistry()
	for _, sp := range []Spec{namedSpec("a", "x"), namedSpec("b", "x", "y"), namedSpec("c")} {
		if err := r.RegisterSpec(sp); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := r.Lookup("b"); !ok {
		t.Error("b not found")
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Error("phantom scenario found")
	}
	if got := r.Names(); !equalStrings(got, []string{"a", "b", "c"}) {
		t.Errorf("names = %v (registration order lost?)", got)
	}
	if got := r.Names("x"); !equalStrings(got, []string{"a", "b"}) {
		t.Errorf("tag x names = %v", got)
	}
	if got := r.Names("x", "y"); !equalStrings(got, []string{"b"}) {
		t.Errorf("tag x+y names = %v", got)
	}
	if r.Len() != 3 {
		t.Errorf("len = %d", r.Len())
	}
}

func TestRegistryRejectsDuplicatesAndInvalid(t *testing.T) {
	r := NewRegistry()
	sp := namedSpec("dup")
	if err := r.RegisterSpec(sp); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterSpec(sp); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate accepted: %v", err)
	}
	if err := r.RegisterSpec(namedSpec("")); err == nil {
		t.Error("empty name accepted")
	}
	if err := r.RegisterSpec(Spec{Name: "bad"}); err == nil {
		t.Error("invalid spec accepted")
	}
	offRoad := Table1Specs()[0]
	offRoad.Name = "off-road-lane-change"
	offRoad.Actors[0].Stages[0].Do.TargetLane = 7
	if err := r.RegisterSpec(offRoad); err == nil || !strings.Contains(err.Error(), "lane change to 7") {
		t.Errorf("off-road lane change accepted: %v", err)
	}
}

func TestRegistrySpecRoundTrip(t *testing.T) {
	r := NewRegistry()
	sp := Table1Specs()[0]
	if err := r.RegisterSpec(sp); err != nil {
		t.Fatal(err)
	}
	sc, ok := r.Lookup(sp.Name)
	if !ok || !sc.HasTag(TagTable1) {
		t.Fatalf("scenario = %+v", sc)
	}
	if got := *sc.Spec; got.Name != sp.Name || len(got.Actors) != len(sp.Actors) {
		t.Errorf("spec round trip: %+v", got)
	}
	if sc.Fingerprint != SpecFingerprint(sp) {
		t.Errorf("fingerprint %s, want the spec's %s", sc.Fingerprint, SpecFingerprint(sp))
	}
	if _, ok := r.Lookup("missing"); ok {
		t.Error("phantom entry")
	}
}

func TestDefaultRegistrySeeded(t *testing.T) {
	r := Default()
	if got := len(r.List(TagTable1)); got != 9 {
		t.Errorf("table1 scenarios = %d, want 9", got)
	}
	if got := len(r.List(TagVariant)); got != 4 {
		t.Errorf("variants = %d, want 4", got)
	}
	// Lookup covers both catalogs; ByName stays table1-only.
	if _, ok := Lookup(HighwayPlatoon); !ok {
		t.Error("variant not resolvable through Lookup")
	}
	if _, ok := Lookup(CutOutFast); !ok {
		t.Error("paper scenario not resolvable through Lookup")
	}
	if _, ok := ByName(HighwayPlatoon); ok {
		t.Error("variant leaked into the paper scenario listing")
	}
	for _, sc := range r.List() {
		if sc.Fingerprint != SpecFingerprint(*sc.Spec) {
			t.Errorf("%s: fingerprint is not the spec's", sc.Name)
		}
	}
}

// namedSpec is a valid spec under a new name and tags.
func namedSpec(name string, tags ...string) Spec {
	sp := Table1Specs()[0]
	sp.Name, sp.Tags = name, tags
	return sp
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Len reports how many scenarios are registered.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byName)
}
