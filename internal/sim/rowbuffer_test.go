package sim

import (
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/vehicle"
)

// rowBufferConfigs are three full-level runs of different shapes: two
// actors for 20 s, one actor for 8 s under a different seed, and an
// actor-less 5 s drive, whose rows carry empty (not nil) actor slices.
func rowBufferConfigs() map[string]Config {
	big := benchConfig(trace.LevelFull)
	small := benchConfig(trace.LevelFull)
	small.Duration, small.Seed, small.Actors = 8, 7, small.Actors[:1]
	empty := baseConfig("empty")
	empty.DesiredSpeed = 20
	empty.EgoInit = vehicle.FrenetState{D: 3.5, Speed: 20}
	empty.Duration = 5
	return map[string]Config{"big": big, "small": small, "empty": empty}
}

// TestRunIntoRecycledMatchesFresh runs A into a buffer, hands the
// buffer to B, and requires B to deep-equal a fresh run of B, for
// every ordered pair of shapes: B reuses A's storage when it fits and
// grows the buffer when it does not.
func TestRunIntoRecycledMatchesFresh(t *testing.T) {
	cfgs := rowBufferConfigs()
	fresh := make(map[string]*Result, len(cfgs))
	for name, cfg := range cfgs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh[name] = res
	}
	for a, cfgA := range cfgs {
		for b, cfgB := range cfgs {
			var buf trace.RowBuffer
			resA, err := RunInto(cfgA, &buf)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(resA, fresh[a]) {
				t.Fatalf("%s into an empty buffer differs from a fresh run", a)
			}
			first := &resA.Trace.Rows[0]
			resB, err := RunInto(cfgB, &buf)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(resB, fresh[b]) {
				t.Errorf("%s recorded after %s into one buffer differs from a fresh run", b, a)
			}
			if reused := &resB.Trace.Rows[0] == first; reused != (cfgB.Duration <= cfgA.Duration) {
				t.Errorf("%s after %s: row storage reused = %v", b, a, reused)
			}
		}
	}
}

// TestRunIntoLeavesSummaryRunsAlone: a run below LevelFull records no
// rows, so it neither reads nor fills the buffer.
func TestRunIntoLeavesSummaryRunsAlone(t *testing.T) {
	var buf trace.RowBuffer
	cfg := benchConfig(trace.LevelSummary)
	res, err := RunInto(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Error("summary run into a buffer differs from a plain run")
	}
	if !reflect.DeepEqual(buf, trace.RowBuffer{}) {
		t.Error("summary run filled the row buffer")
	}
}
