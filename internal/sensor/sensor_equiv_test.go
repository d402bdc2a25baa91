package sensor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/units"
	"repro/internal/world"
)

// The RigCones fast paths may only replace the Camera/Occluded exact
// tests because they decide identically on every input — the
// simulator's byte-identical-trace guarantee rides on it. These tests
// compare fast and exact on randomized scenes, including poses pinned
// to the cone boundaries where the tri-state must fall back.

func randomScene(rng *rand.Rand, n int) (geom.Pose, []world.Agent) {
	ego := geom.Pose{
		Pos:     geom.V((rng.Float64()-0.5)*50, (rng.Float64()-0.5)*50),
		Heading: (rng.Float64() - 0.5) * 7,
	}
	if rng.Intn(3) == 0 {
		ego.Heading = 0
	}
	agents := make([]world.Agent, n)
	for i := range agents {
		heading := (rng.Float64() - 0.5) * 7
		if rng.Intn(3) == 0 {
			heading = 0
		}
		dist := rng.Float64() * 300
		ang := (rng.Float64() - 0.5) * 2 * math.Pi
		agents[i] = world.Agent{
			ID:     string(rune('a' + i)),
			Pose:   geom.Pose{Pos: ego.Pos.Add(geom.FromAngle(ang).Scale(dist)), Heading: heading},
			Speed:  rng.Float64() * 40,
			Accel:  (rng.Float64() - 0.5) * 6,
			LatVel: (rng.Float64() - 0.5) * 2,
			Length: 1 + rng.Float64()*10,
			Width:  1 + rng.Float64()*3,
			Lane:   rng.Intn(3),
			Static: rng.Intn(5) == 0,
		}
	}
	return ego, agents
}

func frameOf(agents []world.Agent) *world.Frame {
	f := world.NewFrame(len(agents))
	for i, a := range agents {
		f.Set(i, a)
	}
	return f
}

func randomRig(rng *rand.Rand) Rig {
	rig := DefaultRig()
	// Add adversarial cones: wide (≥π, no wedge fast path), tiny, and
	// near-boundary FOVs.
	rig = append(rig,
		Camera{Name: "wide", MountHeading: 0.3, FOV: math.Pi + rng.Float64(), Range: 120},
		Camera{Name: "tiny", MountHeading: -0.2, FOV: units.DegToRad(2), Range: 300},
		Camera{Name: "nearpi", MountHeading: 1.1, FOV: math.Pi - 1e-12, Range: 90},
	)
	return rig
}

func TestRigConesMatchesExactVisibility(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 3000; iter++ {
		rig := randomRig(rng)
		ego, agents := randomScene(rng, 1+rng.Intn(5))
		f := frameOf(agents)
		rc := NewRigCones(rig)
		rc.Update(ego)
		oc := &OcclusionCache{}
		oc.Reset(len(agents))

		for ci, cam := range rig {
			for i, a := range agents {
				fast := rc.SeesAgentFrame(ci, f, i)
				exact := cam.SeesAgent(ego, a)
				if fast != exact {
					t.Fatalf("SeesAgentFrame(%s, agent %d) = %v, exact %v\nego %+v\nagent %+v", cam.Name, i, fast, exact, ego, a)
				}
				if got := rc.SeesAgentAt(ci, &a); got != exact {
					t.Fatalf("SeesAgentAt(%s, agent %d) = %v, exact %v", cam.Name, i, got, exact)
				}
			}

			gotIdx := rc.AppendVisibleIdx(nil, ci, f, oc)
			want := AppendVisible(nil, cam, ego, agents)
			if len(gotIdx) != len(want) {
				t.Fatalf("AppendVisibleIdx(%s): %d visible, exact %d", cam.Name, len(gotIdx), len(want))
			}
			for k, idx := range gotIdx {
				if agents[idx].ID != want[k].ID {
					t.Fatalf("AppendVisibleIdx(%s)[%d] = %s, exact %s", cam.Name, k, agents[idx].ID, want[k].ID)
				}
			}
		}

		for i, a := range agents {
			if got, want := OccludedFrame(ego.Pos, f, i, nil), Occluded(ego.Pos, a, agents); got != want {
				t.Fatalf("OccludedFrame(agent %d) = %v, exact %v", i, got, want)
			}
		}
	}
}

// TestRigConesBoundaryPoints pins sample points exactly on cone edges:
// the tri-state must classify them as uncertain (falling back to the
// exact test), never flipping the decision, on the simulator's frame
// path and the estimator's SeesAgentAt alike.
func TestRigConesBoundaryPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 4000; iter++ {
		rig := randomRig(rng)
		ci := rng.Intn(len(rig))
		cam := rig[ci]
		ego := geom.Pose{Pos: geom.V((rng.Float64()-0.5)*20, (rng.Float64()-0.5)*20), Heading: (rng.Float64() - 0.5) * 6}
		rc := NewRigCones(rig)
		rc.Update(ego)

		// A point exactly at Range along a ray near the FOV edge, and a
		// point exactly on the FOV edge inside the range.
		edge := cam.FOV / 2 * (1 - 2*rng.Float64()*1e-15)
		if rng.Intn(2) == 0 {
			edge = -edge
		}
		dir := ego.Heading + cam.MountHeading + edge
		for _, dist := range []float64{cam.Range, cam.Range * (1 - 1e-16), cam.Range * rng.Float64(), 1e-9, 5e-10, 2e-9} {
			p := ego.Pos.Add(geom.FromAngle(dir).Scale(dist))
			a := world.Agent{ID: "x", Pose: geom.Pose{Pos: p}, Length: 1e-9, Width: 1e-9}
			f := frameOf([]world.Agent{a})
			want := cam.SeesAgent(ego, a)
			if got := rc.SeesAgentFrame(ci, f, 0); got != want {
				t.Fatalf("boundary: cam %s dist %v edge %v: fast %v exact %v", cam.Name, dist, edge, got, want)
			}
			if got := rc.SeesAgentAt(ci, &a); got != want {
				t.Fatalf("boundary: cam %s dist %v edge %v: SeesAgentAt %v exact %v", cam.Name, dist, edge, got, want)
			}
		}
	}
}
