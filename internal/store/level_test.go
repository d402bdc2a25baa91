package store

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestPutRefusesNonFullResults pins the persistence guard: the store
// must never archive a Summary/Off-level result, or the disk tier
// would later serve a trace-less run as a hit.
func TestPutRefusesNonFullResults(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	for _, lvl := range []trace.Level{trace.LevelSummary, trace.LevelOff} {
		res := &sim.Result{
			Trace:           &trace.Trace{Meta: trace.Meta{Scenario: "s", FPR: 5, Seed: 1}},
			FramesProcessed: map[string]int{},
			Level:           lvl,
		}
		_, created, err := st.Put("s", key("s", 5, 1), res)
		if err == nil {
			t.Fatalf("%v-level result archived", lvl)
		}
		if created {
			t.Fatalf("%v-level put reported created", lvl)
		}
		if !strings.Contains(err.Error(), lvl.String()) {
			t.Errorf("error does not name the offending level: %v", err)
		}
	}
	if st.Len() != 0 {
		t.Fatalf("store has %d entries after refused puts", st.Len())
	}

	// An off-level result with a nil trace hits the nil guard the same
	// way.
	if _, _, err := st.Put("s", key("s", 5, 2), &sim.Result{Level: trace.LevelOff}); err == nil {
		t.Fatal("nil-trace result archived")
	}
}
