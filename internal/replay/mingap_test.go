package replay

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/world"
)

// legacyMinGap is minGapFromTrace before its per-component reject: a
// copy of each row and actor, and the corridor test on lat.Len alone.
// Do not modernize it; its value is that it does not change.
func legacyMinGap(tr *trace.Trace) (gap float64, infinite bool) {
	gap = math.Inf(1)
	for _, row := range tr.Rows {
		fwd := row.Ego.Pose.Forward()
		for _, a := range row.Actors {
			rel := a.Pose.Pos.Sub(row.Ego.Pose.Pos)
			along := rel.Dot(fwd)
			lat := rel.Sub(fwd.Scale(along))
			if lat.Len() > 2.2 {
				continue
			}
			if g := math.Abs(along) - (row.Ego.Length+a.Length)/2; g < gap {
				gap = g
			}
		}
	}
	if math.IsInf(gap, 1) {
		return 0, true
	}
	return gap, false
}

func assertMinGapMatchesLegacy(t *testing.T, label string, tr *trace.Trace) {
	t.Helper()
	gap, inf := minGapFromTrace(tr)
	wantGap, wantInf := legacyMinGap(tr)
	if math.Float64bits(gap) != math.Float64bits(wantGap) || inf != wantInf {
		t.Fatalf("%s: minGapFromTrace = (%v, %v), legacy (%v, %v)", label, gap, inf, wantGap, wantInf)
	}
}

// TestMinGapMatchesLegacyTable1 pins the corridor reject on every
// Table-1 scenario's recorded trace at a low and a high operating rate.
func TestMinGapMatchesLegacyTable1(t *testing.T) {
	for _, sc := range scenario.All() {
		for _, fpr := range []float64{2, 30} {
			res, err := sim.Run(sc.Build(fpr, 1))
			if err != nil {
				t.Fatalf("%s fpr %g: %v", sc.Name, fpr, err)
			}
			assertMinGapMatchesLegacy(t, sc.Name, res.Trace)
		}
	}
}

// TestMinGapCorridorEdge pins rows whose lateral offset sits on the
// 2.2 m corridor edge along one ego-frame axis: one component exactly
// 2.2 with the other 0, tiny or just past a rounding step, where the
// component reject must defer to the exact length. Headings of 0 and
// π/2 put the offset along the world X and Y axes; non-finite offsets
// cover the hypot special cases.
func TestMinGapCorridorEdge(t *testing.T) {
	offsets := []float64{0, 5e-324, 1e-300, 1e-9, 1e-3, math.NaN(), math.Inf(1)}
	laterals := []float64{2.2, math.Nextafter(2.2, 0), math.Nextafter(2.2, 3), -2.2, 2.0, math.Inf(-1), math.NaN()}
	for _, heading := range []float64{0, math.Pi / 2, 0.3} {
		for _, lat := range laterals {
			for _, off := range offsets {
				for _, swap := range []bool{false, true} {
					x, y := off, lat
					if swap {
						x, y = lat, off
					}
					tr := &trace.Trace{Rows: []trace.Row{{
						Ego: world.Agent{ID: world.EgoID, Pose: geom.Pose{Heading: heading}, Length: 4.6},
						Actors: []world.Agent{
							{ID: "a", Pose: geom.Pose{Pos: geom.V(x, y)}, Length: 4.6},
							{ID: "b", Pose: geom.Pose{Pos: geom.V(30+x, y)}, Length: 4.6},
						},
					}}}
					assertMinGapMatchesLegacy(t, "edge", tr)
				}
			}
		}
	}
}
