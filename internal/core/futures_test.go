package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/trace"
	"repro/internal/world"
)

// futureTrace is 100 rows at 10 ms of one actor, a1, driving +X at
// 15 m/s from x = 50.
func futureTrace() *trace.Trace {
	tr := &trace.Trace{Meta: trace.Meta{Scenario: "futures", FPR: 10, Dt: 0.01}}
	for i := 0; i < 100; i++ {
		t := float64(i) * 0.01
		tr.Rows = append(tr.Rows, trace.Row{
			Time: t,
			Ego:  world.Agent{ID: world.EgoID, Pose: geom.Pose{Pos: geom.V(20*t, 3.5)}, Speed: 20, Length: 4.6, Width: 1.9},
			Actors: []world.Agent{
				{ID: "a1", Pose: geom.Pose{Pos: geom.V(50+15*t, 3.5)}, Speed: 15, Length: 4.6, Width: 1.9},
			},
		})
	}
	return tr
}

// futureAt is the recorded future of id from row i, as EvaluateTrace
// hands it to the model.
func newFutureIndex(tr *trace.Trace, stride int, horizon float64) *futureIndex {
	x := new(futureIndex)
	x.reset(tr, stride, horizon)
	return x
}

func futureAt(x *futureIndex, id string, i int) []world.TrajectoryPoint {
	c, q, end := x.instant(i)
	return c.future(id, q, end)
}

func TestFutureIndex(t *testing.T) {
	tr := futureTrace()
	pts := futureAt(newFutureIndex(tr, 5, 0.5), "a1", 0)
	// Stride 5 over a 0.5 s horizon at dt = 10 ms: rows 0, 5, ..., 50.
	if len(pts) != 11 {
		t.Fatalf("points = %d, want 11", len(pts))
	}
	for k, p := range pts {
		row := &tr.Rows[5*k]
		a := row.Actors[0]
		want := world.TrajectoryPoint{T: row.Time, Pos: a.Pose.Pos, Heading: a.Pose.Heading, Speed: a.Speed, Accel: a.Accel}
		if p != want {
			t.Fatalf("point %d = %+v, want row %d's state %+v", k, p, 5*k, want)
		}
	}
	// Position interpolates the recorded motion.
	traj := world.Trajectory{ActorID: "a1", Prob: 1, Points: pts}
	smp := world.Sampler{Points: pts}
	if at := smp.At(0.2); math.Abs(at.Pos.X-53) > 0.01 {
		t.Errorf("pos at 0.2 = %v", at.Pos.X)
	}
	if err := traj.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFutureIndexHorizonEnd(t *testing.T) {
	tr := futureTrace()
	// Starting near the end, the future stops at the last row rather
	// than at the horizon.
	pts := futureAt(newFutureIndex(tr, 3, 5), "a1", 90)
	if len(pts) != 4 || math.Abs(pts[len(pts)-1].T-0.99) > 1e-9 {
		t.Errorf("points = %d ending at %v, want 4 ending at 0.99", len(pts), pts[len(pts)-1].T)
	}
}

func TestFutureIndexInstantsIndependent(t *testing.T) {
	tr := futureTrace()
	x := newFutureIndex(tr, 1, 0.1)
	first := append([]world.TrajectoryPoint(nil), futureAt(x, "a1", 0)...)
	second := futureAt(x, "a1", 50)
	if len(first) != 11 || len(second) != 11 {
		t.Fatalf("points = %d and %d, want 11 each", len(first), len(second))
	}
	if second[0].T != 0.5 {
		t.Errorf("second start = %v", second[0].T)
	}
	// Asking for the second instant must not have changed the first.
	for k, p := range futureAt(x, "a1", 0) {
		if p != first[k] {
			t.Fatalf("first future point %d changed: %+v -> %+v", k, first[k], p)
		}
	}
}

func TestFutureIndexCapacityCapped(t *testing.T) {
	tr := futureTrace()
	x := newFutureIndex(tr, 1, 0.1)
	// Row 0's future (rows 0-10) ends where row 5's (rows 5-15)
	// continues in the same column; growing the first must not
	// write into the second.
	early := futureAt(x, "a1", 0)
	late := futureAt(x, "a1", 5)
	want := append([]world.TrajectoryPoint(nil), late...)
	if cap(early) != len(early) {
		t.Fatalf("future capacity %d exceeds its length %d", cap(early), len(early))
	}
	early = append(early, world.TrajectoryPoint{T: -1})
	for k := range late {
		if late[k] != want[k] {
			t.Fatalf("appending to one future rewrote another at point %d: %+v", k, late[k])
		}
	}
	if early[len(early)-1].T != -1 {
		t.Error("append lost")
	}
}

func TestFutureIndexMissingActor(t *testing.T) {
	x := newFutureIndex(futureTrace(), 1, 1)
	if pts := futureAt(x, "ghost", 0); pts != nil {
		t.Errorf("ghost: %d points", len(pts))
	}
	// A negative horizon admits not even the starting row.
	if pts := futureAt(newFutureIndex(futureTrace(), 1, -1), "a1", 0); pts != nil {
		t.Errorf("negative horizon: %d points", len(pts))
	}
}

func TestFutureIndexGapAndDuplicate(t *testing.T) {
	tr := futureTrace()
	// Row 20 lists a1 twice; the first listing wins.
	dup := tr.Rows[20].Actors[0]
	dup.Pose.Pos.X += 100
	tr.Rows[20].Actors = []world.Agent{tr.Rows[20].Actors[0], dup}
	// a1 vanishes at row 40 and reappears after it.
	tr.Rows[40].Actors = nil
	x := newFutureIndex(tr, 10, 1)
	pts := futureAt(x, "a1", 0)
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4 (rows 0-30, stopping at the gap)", len(pts))
	}
	if want := tr.Rows[20].Actors[0].Pose.Pos.X; pts[2].Pos.X != want {
		t.Errorf("duplicate row sampled x = %v, want first listing %v", pts[2].Pos.X, want)
	}
	// After the gap the actor's future starts afresh.
	if pts := futureAt(x, "a1", 50); len(pts) != 5 || pts[0].T != tr.Rows[50].Time {
		t.Errorf("after the gap: %d points from %v, want 5 from row 50", len(pts), pts[0].T)
	}
}

// TestFutureIndexResidueClasses evaluates every 25 rows at stride 7,
// so instants fall in several residue classes: each future must be the
// rows i, i+7, … of its own instant.
func TestFutureIndexResidueClasses(t *testing.T) {
	tr := futureTrace()
	tr.Rows[64].Actors = nil // cuts row 50's future after row 57
	x := newFutureIndex(tr, 7, 0.3)
	residues := map[int]bool{}
	for i := 0; i < tr.Len(); i += 25 {
		residues[i%7] = true
		pts := futureAt(x, "a1", i)
		var want []world.TrajectoryPoint
		for j := i; j < tr.Len() && tr.Rows[j].Time-tr.Rows[i].Time <= 0.3 && len(tr.Rows[j].Actors) > 0; j += 7 {
			want = append(want, world.TrajectoryPoint{T: tr.Rows[j].Time, Pos: tr.Rows[j].Actors[0].Pose.Pos, Speed: 15})
		}
		if len(pts) != len(want) {
			t.Fatalf("row %d: %d points, want %d", i, len(pts), len(want))
		}
		for k := range want {
			if pts[k] != want[k] {
				t.Fatalf("row %d point %d = %+v, want %+v", i, k, pts[k], want[k])
			}
		}
	}
	if len(residues) < 4 {
		t.Fatalf("only %d residue classes exercised", len(residues))
	}
	built := 0
	for _, c := range x.classes {
		if c.built {
			built++
		}
	}
	if built != len(residues) {
		t.Errorf("%d classes built for %d residues asked for", built, len(residues))
	}
}

// CheckFutureEnds asks one futureIndex for the given rows of tr, in
// that order, and compares each instant's (q, end) with a scan of the
// horizon from q, as instant did before it resumed from the end it
// returned last. It returns the first mismatch.
func CheckFutureEnds(tr *trace.Trace, stride int, horizon float64, rows []int) error {
	x := newFutureIndex(tr, stride, horizon)
	for _, i := range rows {
		c, q, end := x.instant(i)
		wantEnd := q
		for wantEnd < len(c.times) && c.times[wantEnd]-c.times[q] <= horizon {
			wantEnd++
		}
		if q != i/stride || end != wantEnd {
			return fmt.Errorf("stride %d horizon %g row %d: (q, end) = (%d, %d), scan (%d, %d)", stride, horizon, i, q, end, i/stride, wantEnd)
		}
	}
	return nil
}

// FutureEndOrders are the row orders CheckFutureEnds is run in for a
// trace of n rows: every row ascending, every tenth, every tenth from
// an offset in a later residue class, and every row descending.
func FutureEndOrders(n int) [][]int {
	var all, tenth, offset, down []int
	for i := range n {
		all = append(all, i)
		down = append(down, n-1-i)
		if i%10 == 0 {
			tenth = append(tenth, i)
		}
		if i%10 == 3 {
			offset = append(offset, i)
		}
	}
	return [][]int{all, tenth, offset, down}
}

// TestFutureIndexEndsUnorderedTimes covers row times that are not
// finite and ascending, where the end must come from a full scan: a
// time that steps back, a NaN and an infinity, each mid-trace.
func TestFutureIndexEndsUnorderedTimes(t *testing.T) {
	for _, bad := range []float64{-1, 0.05, math.NaN(), math.Inf(1), math.Inf(-1)} {
		tr := futureTrace()
		tr.Rows[40].Time = bad
		for _, stride := range []int{1, 4} {
			for _, horizon := range []float64{0.1, 0.5, math.Inf(1), -1} {
				for _, rows := range FutureEndOrders(tr.Len()) {
					if err := CheckFutureEnds(tr, stride, horizon, rows); err != nil {
						t.Fatalf("row 40 at %v: %v", bad, err)
					}
				}
			}
		}
	}
}
