package scenario

import "testing"

// TestCatalogMirrorsRegistry: every registered scenario appears as an
// Info with its spec's tags, and tag filtering matches List.
func TestCatalogMirrorsRegistry(t *testing.T) {
	all := Default().Catalog()
	if len(all) != Default().Len() {
		t.Fatalf("catalog size %d, registry %d", len(all), Default().Len())
	}
	for _, info := range all {
		sc, ok := Lookup(info.Name)
		if !ok {
			t.Errorf("catalog entry %q not in registry", info.Name)
			continue
		}
		if info.Description != sc.Description || info.EgoSpeedMPH != sc.EgoSpeedMPH {
			t.Errorf("%s: info drifted from the registered scenario", info.Name)
		}
		if !info.HasSpec || !equalStrings(info.Tags, sc.Tags) {
			t.Errorf("%s: HasSpec = %v, tags %v, want true and %v", info.Name, info.HasSpec, info.Tags, sc.Tags)
		}
	}
	if got := len(Default().Catalog(TagTable1)); got != 9 {
		t.Errorf("table1 catalog size %d", got)
	}
}

// TestInfoOf: generated (unregistered) specs describe themselves.
func TestInfoOf(t *testing.T) {
	specs := NewGenerator(GenOptions{Seed: 7}).Generate(3)
	for _, sp := range specs {
		info := InfoOf(sp)
		if info.Name != sp.Name || !info.HasSpec {
			t.Errorf("InfoOf(%s) = %+v", sp.Name, info)
		}
	}
}
