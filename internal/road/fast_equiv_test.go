package road

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// The fast tables must be invisible: every Road query must return the
// exact bits the generic Centerline path produces. These tests sweep
// the supported shapes with a deterministic fuzz and compare against
// the interface path computed by hand (the Road methods themselves now
// dispatch through the tables, so the reference is rebuilt inline).

func refPoseAtOffset(r *Road, s, d float64) geom.Pose {
	ref := r.Ref.PoseAt(s)
	return geom.Pose{Pos: ref.Pos.Add(ref.Left().Scale(d)), Heading: ref.Heading}
}

func fastRoads() map[string]*Road {
	tilted := &Road{
		Ref:       Line{Start: geom.Pose{Pos: geom.Vec2{X: -12, Y: 7}, Heading: 0.83}, Len: 140},
		LaneWidth: DefaultLaneWidth,
		NumLanes:  2,
	}
	rightArc := &Road{
		Ref:       Arc{Start: geom.Pose{Pos: geom.Vec2{X: 3, Y: -4}, Heading: -0.4}, Curv: -1.0 / 65, Len: 90},
		LaneWidth: 3.2,
		NumLanes:  3,
	}
	return map[string]*Road{
		"straight":  NewStraight(3, 400),
		"tilted":    tilted,
		"curved":    NewCurved(3, 120, 150, 200),
		"right-arc": rightArc,
	}
}

func TestFastPathBitwiseEquivalence(t *testing.T) {
	for name, r := range fastRoads() {
		t.Run(name, func(t *testing.T) {
			if !r.fastOf().ok {
				t.Fatalf("fast tables not built for %s", name)
			}
			rng := rand.New(rand.NewSource(11))
			total := r.Ref.Length()
			for i := 0; i < 4000; i++ {
				// Cover in-range stations, the extrapolation tails, and
				// off-road lateral offsets.
				s := (rng.Float64()*1.3 - 0.15) * total
				d := (rng.Float64() - 0.35) * 4 * r.LaneWidth

				if got, want := r.PoseAtOffset(s, d), refPoseAtOffset(r, s, d); got != want {
					t.Fatalf("PoseAtOffset(%v, %v) = %+v, generic path %+v", s, d, got, want)
				}
				if got, want := r.TangentAt(s), r.Ref.PoseAt(s).Forward(); got != want {
					t.Fatalf("TangentAt(%v) = %+v, generic path %+v", s, got, want)
				}

				p := refPoseAtOffset(r, s, d).Pos
				gs, gd := r.Frenet(p)
				ws, wd := r.Ref.Project(p)
				if gs != ws || gd != wd {
					t.Fatalf("Frenet(%+v) = (%v, %v), generic path (%v, %v)", p, gs, gd, ws, wd)
				}

				// Arbitrary points, not on any lane.
				q := geom.Vec2{X: (rng.Float64() - 0.5) * 2 * total, Y: (rng.Float64() - 0.5) * 2 * total}
				gs, gd = r.Frenet(q)
				ws, wd = r.Ref.Project(q)
				if gs != ws || gd != wd {
					t.Fatalf("Frenet(%+v) = (%v, %v), generic path (%v, %v)", q, gs, gd, ws, wd)
				}
			}
		})
	}
}

// TestFastPathFallback keeps custom Centerline implementations on the
// generic path.
func TestFastPathFallback(t *testing.T) {
	r := &Road{Ref: sineRef{}, LaneWidth: DefaultLaneWidth, NumLanes: 1}
	if r.fastOf().ok {
		t.Fatal("unknown centerline type must not compile fast tables")
	}
	if got, want := r.PoseAtOffset(3, 1), refPoseAtOffset(r, 3, 1); got != want {
		t.Fatalf("fallback PoseAtOffset = %+v, want %+v", got, want)
	}
	if gs, gd := r.Frenet(geom.Vec2{X: 2, Y: 5}); gs != 2 || gd != 5 {
		t.Fatalf("fallback Frenet = (%v, %v), want (2, 5)", gs, gd)
	}
}

// sineRef is a toy non-analytic centerline exercising the fallback.
type sineRef struct{}

func (sineRef) PoseAt(s float64) geom.Pose {
	return geom.Pose{Pos: geom.Vec2{X: s, Y: math.Sin(s)}, Heading: math.Atan(math.Cos(s))}
}
func (sineRef) Project(p geom.Vec2) (s, d float64) { return p.X, p.Y }
func (sineRef) Length() float64                    { return 100 }
