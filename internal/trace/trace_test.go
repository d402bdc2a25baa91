package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/world"
)

func sampleTrace() *Trace {
	tr := &Trace{
		Meta: Meta{Scenario: "cut-in", FPR: 10, Seed: 7, Dt: 0.01, Cameras: []string{"front120", "left", "right"}},
	}
	for i := 0; i < 100; i++ {
		t := float64(i) * 0.01
		tr.Rows = append(tr.Rows, Row{
			Time: t,
			Ego: world.Agent{
				ID: world.EgoID, Pose: geom.Pose{Pos: geom.V(20*t, 3.5)},
				Speed: 20, Length: 4.6, Width: 1.9, Lane: 1,
			},
			Actors: []world.Agent{
				{ID: "a1", Pose: geom.Pose{Pos: geom.V(50+15*t, 3.5)}, Speed: 15, Length: 4.6, Width: 1.9, Lane: 1},
			},
			CmdAccel: -0.5,
			Rates:    map[string]float64{"front120": 10},
		})
	}
	return tr
}

func TestLenAndDuration(t *testing.T) {
	tr := sampleTrace()
	if tr.Len() != 100 {
		t.Errorf("Len = %d", tr.Len())
	}
	if math.Abs(tr.Duration()-0.99) > 1e-9 {
		t.Errorf("Duration = %v", tr.Duration())
	}
	if (&Trace{}).Duration() != 0 {
		t.Error("empty trace duration")
	}
}

func TestSnapshot(t *testing.T) {
	tr := sampleTrace()
	s := tr.Snapshot(50)
	if math.Abs(s.Time-0.5) > 1e-9 {
		t.Errorf("time = %v", s.Time)
	}
	if s.Ego.ID != world.EgoID || len(s.Actors) != 1 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestAppendActorFuture(t *testing.T) {
	tr := sampleTrace()
	trajs, buf := tr.AppendActorFuture(nil, nil, "a1", 0, 0.5, 5)
	if len(trajs) != 1 {
		t.Fatalf("appended %d trajectories, want 1", len(trajs))
	}
	traj := trajs[0]
	if traj.ActorID != "a1" || traj.Prob != 1 {
		t.Errorf("traj = %q prob %v", traj.ActorID, traj.Prob)
	}
	if traj.Start() != 0 {
		t.Errorf("start = %v", traj.Start())
	}
	// Stride 5 over a 0.5 s horizon at dt = 10 ms: rows 0, 5, ..., 50.
	if len(traj.Points) != 11 || len(buf) != 11 {
		t.Errorf("points = %d (buf %d), want 11", len(traj.Points), len(buf))
	}
	if traj.End() < 0.45 || traj.End() > 0.55 {
		t.Errorf("end = %v", traj.End())
	}
	// Position interpolates the recorded motion.
	at := traj.At(0.2)
	if math.Abs(at.Pos.X-53) > 0.01 {
		t.Errorf("pos at 0.2 = %v", at.Pos.X)
	}
	if err := traj.Validate(); err != nil {
		t.Error(err)
	}
}

func TestAppendActorFutureHorizonEnd(t *testing.T) {
	tr := sampleTrace()
	// Starting near the end, the future stops at the last row rather
	// than at the horizon.
	trajs, _ := tr.AppendActorFuture(nil, nil, "a1", 90, 5, 3)
	if len(trajs) != 1 {
		t.Fatalf("appended %d trajectories, want 1", len(trajs))
	}
	pts := trajs[0].Points
	if len(pts) != 4 || math.Abs(pts[len(pts)-1].T-0.99) > 1e-9 {
		t.Errorf("points = %d ending at %v, want 4 ending at 0.99", len(pts), pts[len(pts)-1].T)
	}
}

func TestAppendActorFutureAppends(t *testing.T) {
	tr := sampleTrace()
	trajs, buf := tr.AppendActorFuture(nil, nil, "a1", 0, 0.1, 1)
	first := append([]world.TrajectoryPoint(nil), trajs[0].Points...)
	trajs, buf = tr.AppendActorFuture(trajs, buf, "a1", 50, 0.1, 1)
	if len(trajs) != 2 || len(buf) != 2*len(first) {
		t.Fatalf("trajs = %d, buf = %d", len(trajs), len(buf))
	}
	// The second carve must not have overwritten the first.
	for k, p := range trajs[0].Points {
		if p != first[k] {
			t.Fatalf("first trajectory point %d changed: %+v -> %+v", k, first[k], p)
		}
	}
	if trajs[1].Start() != 0.5 {
		t.Errorf("second start = %v", trajs[1].Start())
	}
}

func TestAppendActorFutureMissingActor(t *testing.T) {
	tr := sampleTrace()
	for _, c := range []struct {
		id string
		i  int
	}{{"ghost", 0}, {"a1", -1}, {"a1", 1000}} {
		trajs, buf := tr.AppendActorFuture(nil, nil, c.id, c.i, 1, 1)
		if len(trajs) != 0 || len(buf) != 0 {
			t.Errorf("%s at row %d: appended %d trajectories, %d points", c.id, c.i, len(trajs), len(buf))
		}
	}
}

func TestAppendActorFutureGapAndDuplicate(t *testing.T) {
	tr := sampleTrace()
	// Row 20 lists a1 twice; the first listing wins.
	dup := tr.Rows[20].Actors[0]
	dup.Pose.Pos.X += 100
	tr.Rows[20].Actors = []world.Agent{tr.Rows[20].Actors[0], dup}
	// a1 vanishes at row 40 and reappears after it.
	tr.Rows[40].Actors = nil
	trajs, _ := tr.AppendActorFuture(nil, nil, "a1", 0, 1, 10)
	pts := trajs[0].Points
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4 (rows 0-30, stopping at the gap)", len(pts))
	}
	if want := tr.Rows[20].Actors[0].Pose.Pos.X; pts[2].Pos.X != want {
		t.Errorf("duplicate row sampled x = %v, want first listing %v", pts[2].Pos.X, want)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tr := sampleTrace()
	tr.Collision = &Collision{Time: 0.7, ActorID: "a1"}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Scenario != "cut-in" || got.Meta.FPR != 10 || got.Meta.Seed != 7 {
		t.Errorf("meta = %+v", got.Meta)
	}
	if len(got.Meta.Cameras) != 3 || got.Meta.Cameras[0] != "front120" {
		t.Errorf("cameras = %v", got.Meta.Cameras)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("rows = %d, want %d", got.Len(), tr.Len())
	}
	if got.Collision == nil || got.Collision.ActorID != "a1" {
		t.Errorf("collision = %+v", got.Collision)
	}
	r0 := got.Rows[10]
	if r0.Ego.Speed != 20 || len(r0.Actors) != 1 || r0.Actors[0].ID != "a1" {
		t.Errorf("row = %+v", r0)
	}
	if r0.Rates["front120"] != 10 {
		t.Errorf("rates = %v", r0.Rates)
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Read(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage header accepted")
	}
	if _, err := Read(strings.NewReader(`{"meta":{"scenario":"x"}}` + "\n" + "garbage\n")); err == nil {
		t.Error("garbage row accepted")
	}
}

func TestReadSkipsBlankLines(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	padded := strings.Replace(buf.String(), "\n", "\n\n", 1)
	got, err := Read(strings.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Errorf("rows = %d", got.Len())
	}
}

func TestIndexAt(t *testing.T) {
	tr := sampleTrace()
	if got := tr.IndexAt(0.505); got != 50 {
		t.Errorf("IndexAt(0.505) = %d", got)
	}
	if got := tr.IndexAt(-1); got != 0 {
		t.Errorf("IndexAt(-1) = %d", got)
	}
	if got := tr.IndexAt(100); got != 99 {
		t.Errorf("IndexAt(100) = %d", got)
	}
	if got := (&Trace{}).IndexAt(1); got != 0 {
		t.Errorf("empty IndexAt = %d", got)
	}
}
