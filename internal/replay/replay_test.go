package replay

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/world"
)

// syntheticResult builds a small run with a lead actor ahead of the
// ego, so the offline evaluator produces non-trivial estimates.
func syntheticResult(scn string, fpr float64, seed int64, collide bool) *sim.Result {
	tr := &trace.Trace{Meta: trace.Meta{
		Scenario: scn, FPR: fpr, Seed: seed, Dt: 0.01,
		Cameras: []string{"front120", "left", "right"},
	}}
	for i := 0; i < 60; i++ {
		t := float64(i) * 0.01
		tr.Rows = append(tr.Rows, trace.Row{
			Time: t,
			Ego: world.Agent{
				ID: world.EgoID, Pose: geom.Pose{Pos: geom.V(25*t, 0)},
				Speed: 25, Length: 4.6, Width: 1.9,
			},
			Actors: []world.Agent{
				{ID: "lead", Pose: geom.Pose{Pos: geom.V(30+10*t, 0)}, Speed: 10,
					Accel: -2, Length: 4.6, Width: 1.9},
			},
			CmdAccel: -1,
			Rates:    map[string]float64{"front120": fpr, "left": fpr, "right": fpr},
		})
	}
	res := &sim.Result{
		Trace:           tr,
		FramesProcessed: map[string]int{"front120": 6, "left": 6, "right": 6},
		MinBumperGap:    5 + float64(seed),
	}
	if collide {
		res.Collision = &trace.Collision{Time: 0.59, ActorID: "lead"}
		tr.Collision = res.Collision
	}
	return res
}

// seedStore archives a small two-scenario corpus: "hard" collides at
// FPR 1 (MRF 5), "easy" never collides (MRF <min).
func seedStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for _, scn := range []string{"hard", "easy"} {
		for _, fpr := range []float64{1, 5} {
			for seed := int64(1); seed <= 2; seed++ {
				collide := scn == "hard" && fpr == 1 && seed == 1
				res := syntheticResult(scn, fpr, seed, collide)
				if _, _, err := st.Put(scn, store.KeyForScenario(scenario.Spec{Name: scn}.Scenario(), fpr, seed), res); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return st
}

func TestRecordReplayDiffZeroDivergences(t *testing.T) {
	st := seedStore(t)
	rep, err := Run(context.Background(), st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Summaries) != 8 {
		t.Fatalf("replayed %d runs, want 8", len(rep.Summaries))
	}
	if err := WriteBaselines(st, rep.Summaries); err != nil {
		t.Fatal(err)
	}
	base, err := LoadBaselines(st)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(context.Background(), st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if divs := Diff(base, again.Summaries); len(divs) != 0 {
		t.Fatalf("replay of unchanged store diverged: %v", divs)
	}
}

// TestLegacyStoreFixtureDiffsClean replays the store package's frozen
// legacy fixture — gzip-JSONL objects and baselines written by the last
// release that wrote that format — against its recorded baselines, then
// upgrades it to ZYT1 and replays again: zero divergences both times.
func TestLegacyStoreFixtureDiffsClean(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("..", "store", "testdata", "legacy-store"))); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	base, err := LoadBaselines(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, when := range []string{"legacy", "migrated"} {
		rep, err := Run(context.Background(), st, Options{})
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if len(rep.Summaries) != len(base) || len(base) != 5 {
			t.Fatalf("%s: replayed %d runs against %d baselines, want 5", when, len(rep.Summaries), len(base))
		}
		if divs := Diff(base, rep.Summaries); len(divs) != 0 {
			t.Errorf("%s: fixture diverged from its baselines: %v", when, divs)
		}
		if _, err := st.Migrate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDiffCatchesEveryDimension(t *testing.T) {
	st := seedStore(t)
	rep, err := Run(context.Background(), st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := rep.Summaries

	perturb := func(f func(ss []Summary)) []Summary {
		cur := make([]Summary, len(base))
		copy(cur, base)
		f(cur)
		return cur
	}
	cases := []struct {
		name   string
		field  string
		modify func(ss []Summary)
	}{
		{"collision flip", "collided", func(ss []Summary) { ss[0].Collided = !ss[0].Collided }},
		{"min gap drift", "min-gap", func(ss []Summary) { ss[1].MinGap += 0.5 }},
		{"estimate drift", "max-est-fpr", func(ss []Summary) { ss[2].MaxEstFPR *= 1.01 }},
		{"sum drift", "max-sum-fpr", func(ss []Summary) { ss[3].MaxSumFPR += 1 }},
		{"alarm drift", "alarms", func(ss []Summary) { ss[4].Alarms += 3 }},
		{"row loss", "rows", func(ss []Summary) { ss[5].Rows-- }},
	}
	for _, tc := range cases {
		divs := Diff(base, perturb(tc.modify))
		if len(divs) == 0 {
			t.Errorf("%s: no divergence reported", tc.name)
			continue
		}
		found := false
		for _, d := range divs {
			if d.Field == tc.field {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: field %q absent from %v", tc.name, tc.field, divs)
		}
	}

	// Presence: an archived run without a baseline and vice versa.
	divs := Diff(base[1:], base)
	if len(divs) == 0 || divs[0].Field != "presence" {
		t.Errorf("unrecorded run: %v", divs)
	}
	divs = Diff(base, base[1:])
	found := false
	for _, d := range divs {
		if d.Field == "presence" && d.Current == "missing" {
			found = true
		}
	}
	if !found {
		t.Errorf("lost artifact not reported: %v", divs)
	}
}

func TestMRFDerivationAndOrdering(t *testing.T) {
	st := seedStore(t)
	rep, err := Run(context.Background(), st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mrfs := MRFOf(rep.Summaries)
	if mrfs["hard"] != 5 {
		t.Errorf("hard MRF = %v, want 5 (collided at 1, clean at 5)", mrfs["hard"])
	}
	if mrfs["easy"] != 0 {
		t.Errorf("easy MRF = %v, want 0 (<min)", mrfs["easy"])
	}
	if got := MRFOrdering(rep.Summaries); !reflect.DeepEqual(got, []string{"hard", "easy"}) {
		t.Errorf("ordering = %v", got)
	}

	// A collision appearing at the top rate flips the scenario to
	// unsafe and must surface as both an MRF and an ordering change.
	cur := make([]Summary, len(rep.Summaries))
	copy(cur, rep.Summaries)
	for i := range cur {
		if cur[i].Scenario == "easy" && cur[i].FPR == 5 && cur[i].Seed == 1 {
			cur[i].Collided = true
		}
	}
	divs := Diff(rep.Summaries, cur)
	var fields []string
	for _, d := range divs {
		fields = append(fields, d.Field)
	}
	joined := strings.Join(fields, ",")
	if !strings.Contains(joined, "mrf") || !strings.Contains(joined, "mrf-ordering") {
		t.Errorf("divergence fields = %v, want mrf + mrf-ordering", fields)
	}
	if v := MRFOf(cur)["easy"]; !math.IsInf(v, 1) {
		t.Errorf("easy MRF after top-rate collision = %v, want +Inf", v)
	}
}

func TestBaselineMergeSupersedes(t *testing.T) {
	st := seedStore(t)
	rep, err := Run(context.Background(), st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBaselines(st, rep.Summaries[:4]); err != nil {
		t.Fatal(err)
	}
	// Second write: remaining runs plus a superseded copy of run 0.
	edited := rep.Summaries[0]
	edited.Alarms += 7
	if err := WriteBaselines(st, append([]Summary{edited}, rep.Summaries[4:]...)); err != nil {
		t.Fatal(err)
	}
	base, err := LoadBaselines(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(rep.Summaries) {
		t.Fatalf("merged baselines hold %d runs, want %d", len(base), len(rep.Summaries))
	}
	found := false
	for _, s := range base {
		if s.Key == edited.Key {
			found = true
			if s.Alarms != edited.Alarms {
				t.Error("superseding write did not win")
			}
		}
	}
	if !found {
		t.Fatal("edited run missing from merged baselines")
	}
	for i := 1; i < len(base); i++ {
		a, b := base[i-1], base[i]
		if a.Scenario > b.Scenario {
			t.Fatalf("baselines unsorted: %s before %s", a.Scenario, b.Scenario)
		}
	}
}

// TestAlarmsFromRealTrace pins the alarm count against the real stack:
// a trace recorded below the scenario's requirement must raise alarms,
// one recorded far above must not.
func TestAlarmsFromRealTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("real closed-loop simulation")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sc, ok := scenario.Lookup(scenario.CutOutFast)
	if !ok {
		t.Fatal("cut-out-fast not registered")
	}
	eng := engine.New(engine.Options{Workers: 2, Store: st})
	defer eng.Close()
	for _, fpr := range []float64{1, 30} {
		if _, err := eng.Run(context.Background(), engine.Job{Scenario: sc, FPR: fpr, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Run(context.Background(), st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	byFPR := map[float64]Summary{}
	for _, s := range rep.Summaries {
		byFPR[s.FPR] = s
	}
	if byFPR[1].Alarms == 0 {
		t.Error("1-FPR trace raised no alarms; the scenario's requirement exceeds 1")
	}
	if byFPR[30].Alarms != 0 {
		t.Errorf("30-FPR trace raised %d alarms, want 0", byFPR[30].Alarms)
	}
	if byFPR[30].MaxEstFPR <= 1 {
		t.Errorf("MaxEstFPR = %v, want > 1", byFPR[30].MaxEstFPR)
	}
}

// TestRunBoundsGoroutines replays a 64-entry store with two workers:
// the goroutine count must stay within the worker bound however many
// entries the store holds, and the summaries must equal a serial run's
// in store-entry order.
func TestRunBoundsGoroutines(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for _, scn := range []string{"a", "b", "c", "d"} {
		for _, fpr := range []float64{1, 2, 3, 5, 8, 10, 20, 30} {
			for seed := int64(1); seed <= 2; seed++ {
				res := syntheticResult(scn, fpr, seed, false)
				if _, _, err := st.Put(scn, store.KeyForScenario(scenario.Spec{Name: scn}.Scenario(), fpr, seed), res); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if n := len(st.Entries()); n != 64 {
		t.Fatalf("store holds %d entries, want 64", n)
	}
	serial, err := Run(context.Background(), st, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	const workers, slack = 2, 3
	stop := make(chan struct{})
	peak := make(chan int)
	go func() {
		max := 0
		for {
			select {
			case <-stop:
				peak <- max
				return
			default:
			}
			if n := runtime.NumGoroutine(); n > max {
				max = n
			}
			runtime.Gosched()
		}
	}()
	runtime.Gosched()
	base := runtime.NumGoroutine() // includes the sampler
	rep, err := Run(context.Background(), st, Options{Workers: workers})
	close(stop)
	got := <-peak
	if err != nil {
		t.Fatal(err)
	}
	if got > base+workers+slack {
		t.Errorf("peak goroutines %d, want <= baseline %d + %d workers + %d", got, base, workers, slack)
	}
	if !reflect.DeepEqual(rep.Summaries, serial.Summaries) {
		t.Error("two-worker summaries differ from the serial run's")
	}
}

// TestRunWorkersMatchSerial replays real Table-1 traces of varied
// length with four workers, each reading, decoding and evaluating into
// its own reused storage, and with one. Both passes must equal a
// Summarize of each entry read into fresh storage. CI repeats it under
// the race detector, which flags storage two workers share.
func TestRunWorkersMatchSerial(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, name := range []string{scenario.CutOut, scenario.CutIn, scenario.CutOutFast} {
		sc, ok := scenario.Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		for _, fpr := range []float64{1, 5, 30} {
			res, err := sim.Run(sc.Build(fpr, 1))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := st.Put(name, store.KeyForScenario(sc, fpr, 1), res); err != nil {
				t.Fatal(err)
			}
		}
	}
	var fresh []Summary
	for _, e := range st.Entries() {
		tr, err := st.Trace(e)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Summarize(e, tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, s)
	}
	for _, workers := range []int{1, 4} {
		rep, err := Run(context.Background(), st, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Summaries, fresh) {
			t.Errorf("%d-worker summaries differ from fresh per-entry summaries", workers)
		}
	}
}
