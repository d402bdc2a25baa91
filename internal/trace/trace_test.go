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
