package sensor

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/units"
	"repro/internal/world"
)

func agentAt(id string, x, y float64) world.Agent {
	return world.Agent{
		ID:     id,
		Pose:   geom.Pose{Pos: geom.V(x, y)},
		Length: 4.6,
		Width:  1.9,
	}
}

func TestCameraSeesPoint(t *testing.T) {
	cam := Camera{Name: "front", MountHeading: 0, FOV: units.DegToRad(120), Range: 100}
	ego := geom.Pose{Pos: geom.V(0, 0), Heading: 0}
	cases := []struct {
		p    geom.Vec2
		want bool
	}{
		{geom.V(50, 0), true},    // dead ahead
		{geom.V(150, 0), false},  // beyond range
		{geom.V(10, 10), true},   // 45° left, inside ±60°
		{geom.V(1, 10), false},   // ~84° left, outside
		{geom.V(-10, 0), false},  // behind
		{geom.V(0, 0), true},     // coincident
		{geom.V(5, 8.65), true},  // ~60°, boundary (inside tolerance)
		{geom.V(5, -8.65), true}, // symmetric right boundary
	}
	for i, c := range cases {
		if got := cam.SeesPoint(ego, c.p); got != c.want {
			t.Errorf("case %d: SeesPoint(%v) = %v, want %v", i, c.p, got, c.want)
		}
	}
}

func TestCameraRotatesWithEgo(t *testing.T) {
	cam := Camera{Name: "front", MountHeading: 0, FOV: units.DegToRad(60), Range: 100}
	ego := geom.Pose{Pos: geom.V(0, 0), Heading: math.Pi / 2} // facing +Y
	if !cam.SeesPoint(ego, geom.V(0, 50)) {
		t.Error("rotated ego should see ahead (+Y)")
	}
	if cam.SeesPoint(ego, geom.V(50, 0)) {
		t.Error("rotated ego should not see +X in a 60° cone")
	}
}

func TestSideCameraMount(t *testing.T) {
	left := Camera{Name: Left, MountHeading: math.Pi / 2, FOV: units.DegToRad(120), Range: 80}
	right := Camera{Name: Right, MountHeading: -math.Pi / 2, FOV: units.DegToRad(120), Range: 80}
	ego := geom.Pose{Pos: geom.V(0, 0), Heading: 0}
	if !left.SeesPoint(ego, geom.V(0, 10)) {
		t.Error("left camera should see left")
	}
	if left.SeesPoint(ego, geom.V(0, -10)) {
		t.Error("left camera should not see right")
	}
	if !right.SeesPoint(ego, geom.V(0, -10)) {
		t.Error("right camera should see right")
	}
	if right.SeesPoint(ego, geom.V(0, 10)) {
		t.Error("right camera should not see left")
	}
}

func TestSeesAgentByCorner(t *testing.T) {
	cam := Camera{Name: "front", MountHeading: 0, FOV: units.DegToRad(60), Range: 100}
	ego := geom.Pose{Pos: geom.V(0, 0), Heading: 0}
	// Center slightly outside the cone, but the near corner pokes in.
	a := agentAt("a1", 10, 6.2)
	if !cam.SeesAgent(ego, a) {
		t.Error("agent corner should be visible")
	}
	far := agentAt("a2", 10, 30)
	if cam.SeesAgent(ego, far) {
		t.Error("distant lateral agent should be invisible")
	}
}

func TestDefaultRigComplete(t *testing.T) {
	rig := DefaultRig()
	if len(rig) != 5 {
		t.Fatalf("rig size = %d", len(rig))
	}
	for _, name := range []string{Front120, Front60, Left, Right, Rear} {
		if !slices.ContainsFunc(rig, func(c Camera) bool { return c.Name == name }) {
			t.Errorf("missing camera %s", name)
		}
	}
	if slices.ContainsFunc(rig, func(c Camera) bool { return c.Name == "nope" }) {
		t.Error("phantom camera found")
	}
	names := rig.Names()
	if len(names) != 5 || names[0] != Front120 {
		t.Errorf("Names = %v", names)
	}
	analyzed := AnalyzedCameras()
	if len(analyzed) != 3 {
		t.Errorf("analyzed cameras = %v", analyzed)
	}
	for _, name := range analyzed {
		if !slices.ContainsFunc(rig, func(c Camera) bool { return c.Name == name }) {
			t.Errorf("analyzed camera %s not in rig", name)
		}
	}
}

func TestRigVisible(t *testing.T) {
	rig := DefaultRig()
	ego := geom.Pose{Pos: geom.V(0, 0), Heading: 0}

	front := agentAt("front", 50, 0)
	seen := seenBy(rig, ego, front)
	if !contains(seen, Front120) || !contains(seen, Front60) {
		t.Errorf("front actor seen by %v", seen)
	}
	if contains(seen, Rear) {
		t.Errorf("front actor seen by rear camera: %v", seen)
	}

	leftSide := agentAt("left", 0, 15)
	seen = seenBy(rig, ego, leftSide)
	if !contains(seen, Left) || contains(seen, Right) {
		t.Errorf("left actor seen by %v", seen)
	}

	behind := agentAt("behind", -40, 0)
	seen = seenBy(rig, ego, behind)
	if !contains(seen, Rear) || contains(seen, Front120) {
		t.Errorf("rear actor seen by %v", seen)
	}
}

// An actor diagonally ahead-left near the FOV seam should appear in both
// the front and left cameras; Zhuyi's per-camera aggregation depends on
// overlapping FOVs behaving this way.
func TestFOVOverlap(t *testing.T) {
	rig := DefaultRig()
	ego := geom.Pose{Pos: geom.V(0, 0), Heading: 0}
	diag := agentAt("d", 10, 10)
	seen := seenBy(rig, ego, diag)
	if !contains(seen, Front120) || !contains(seen, Left) {
		t.Errorf("diagonal actor seen by %v, want front120+left", seen)
	}
}

// seenBy names the rig's cameras that see a from the ego pose.
func seenBy(rig Rig, ego geom.Pose, a world.Agent) []string {
	var seen []string
	for _, c := range rig {
		if c.SeesAgent(ego, a) {
			seen = append(seen, c.Name)
		}
	}
	return seen
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
