package scenario

// Info is a wire-friendly scenario description: the fields a catalog
// consumer (the `zhuyi scenarios list` CLI, the campaign server's
// GET /v1/scenarios endpoint) needs to pick a scenario, without the
// full Spec or the compiled geometry.
type Info struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	EgoSpeedMPH float64  `json:"ego_speed_mph"`
	Tags        []string `json:"tags,omitempty"`
	// HasSpec is always true: every scenario is a declarative Spec.
	// The field stays so GET /v1/scenarios bodies keep their shape.
	HasSpec bool `json:"has_spec"`
}

// InfoOf summarizes one spec, registered or not — the generator's
// corpus members are described with it before registration.
func InfoOf(sp Spec) Info {
	return Info{
		Name:        sp.Name,
		Description: sp.Description,
		EgoSpeedMPH: sp.EgoSpeedMPH,
		Tags:        append([]string(nil), sp.Tags...),
		HasSpec:     true,
	}
}

// Catalog lists the registry's scenarios as Infos, in registration
// order, optionally filtered to scenarios carrying all the given tags.
func (r *Registry) Catalog(tags ...string) []Info {
	scs := r.List(tags...)
	out := make([]Info, len(scs))
	for i, sc := range scs {
		out[i] = InfoOf(*sc.Spec)
	}
	return out
}
