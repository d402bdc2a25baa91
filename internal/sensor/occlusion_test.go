package sensor

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/units"
	"repro/internal/world"
)

func TestOccludedByLeadVehicle(t *testing.T) {
	ego := geom.V(0, 0)
	// Lead truck directly ahead at 30 m, obstacle at 60 m in the same lane.
	lead := world.Agent{ID: "lead", Pose: geom.Pose{Pos: geom.V(30, 0)}, Length: 8, Width: 2.5}
	obstacle := world.Agent{ID: "obs", Pose: geom.Pose{Pos: geom.V(60, 0)}, Length: 4, Width: 1.9}
	if !Occluded(ego, obstacle, []world.Agent{lead, obstacle}) {
		t.Error("obstacle behind lead should be occluded")
	}
	// Move the lead to the adjacent lane: line of sight clears.
	lead.Pose.Pos = geom.V(30, 3.5)
	if Occluded(ego, obstacle, []world.Agent{lead, obstacle}) {
		t.Error("obstacle should be revealed after lead cut-out")
	}
}

func TestPartialOcclusionStillVisible(t *testing.T) {
	ego := geom.V(0, 0)
	// Narrow occluder covers the center ray but not the side extremes of a
	// wide target.
	occluder := world.Agent{ID: "occ", Pose: geom.Pose{Pos: geom.V(20, 0)}, Length: 1, Width: 0.4}
	target := world.Agent{ID: "tgt", Pose: geom.Pose{Pos: geom.V(40, 0)}, Length: 4.6, Width: 2.4}
	if Occluded(ego, target, []world.Agent{occluder, target}) {
		t.Error("partially visible target reported occluded")
	}
}

func TestOcclusionIgnoresTargetItself(t *testing.T) {
	ego := geom.V(0, 0)
	target := world.Agent{ID: "tgt", Pose: geom.Pose{Pos: geom.V(40, 0)}, Length: 4.6, Width: 1.9}
	if Occluded(ego, target, []world.Agent{target}) {
		t.Error("target occluded by itself")
	}
}

func TestVisibleActorsHonorsOcclusion(t *testing.T) {
	cam := Camera{Name: Front120, MountHeading: 0, FOV: units.DegToRad(120), Range: 150}
	ego := geom.Pose{Pos: geom.V(0, 0), Heading: 0}
	lead := world.Agent{ID: "lead", Pose: geom.Pose{Pos: geom.V(30, 0)}, Length: 8, Width: 2.5}
	obstacle := world.Agent{ID: "obs", Pose: geom.Pose{Pos: geom.V(60, 0)}, Length: 4, Width: 1.9}
	actors := []world.Agent{lead, obstacle}

	vis := AppendVisible(nil, cam, ego, actors)
	if len(vis) != 1 || vis[0].ID != "lead" {
		t.Errorf("visible = %v", ids(vis))
	}

	// After the lead cuts out, both are visible.
	actors[0].Pose.Pos = geom.V(30, 3.5)
	vis = AppendVisible(nil, cam, ego, actors)
	if len(vis) != 2 {
		t.Errorf("after cut-out visible = %v", ids(vis))
	}
}

func TestVisibleActorsRespectsFOV(t *testing.T) {
	cam := Camera{Name: Front60, MountHeading: 0, FOV: units.DegToRad(60), Range: 100}
	ego := geom.Pose{Pos: geom.V(0, 0), Heading: 0}
	behind := world.Agent{ID: "b", Pose: geom.Pose{Pos: geom.V(-20, 0)}, Length: 4.6, Width: 1.9}
	if vis := AppendVisible(nil, cam, ego, []world.Agent{behind}); len(vis) != 0 {
		t.Errorf("behind actor visible: %v", ids(vis))
	}
}

func ids(agents []world.Agent) []string {
	var out []string
	for _, a := range agents {
		out = append(out, a.ID)
	}
	return out
}
