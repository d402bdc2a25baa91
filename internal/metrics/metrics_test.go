package metrics

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestDefaultFPRGridMatchesTable1(t *testing.T) {
	grid := DefaultFPRGrid()
	want := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 30}
	if len(grid) != len(want) {
		t.Fatalf("grid size = %d", len(grid))
	}
	for i := range want {
		if grid[i] != want[i] {
			t.Errorf("grid[%d] = %v, want %v", i, grid[i], want[i])
		}
	}
}

func TestMRFString(t *testing.T) {
	if got := (MRF{Value: 0}).String(); got != "<1" {
		t.Errorf("below-grid MRF = %q", got)
	}
	if got := (MRF{Value: 5}).String(); got != "5" {
		t.Errorf("MRF = %q", got)
	}
	if !(MRF{Value: 0}).BelowGrid() {
		t.Error("BelowGrid false for 0")
	}
}

func TestFindMRFBenignScenario(t *testing.T) {
	// The benign activity scenario is safe at every tested rate: MRF <1.
	sc, _ := scenario.ByName(scenario.FrontRightActivity1)
	m, err := FindMRF(context.Background(), testEng, sc, []float64{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !m.BelowGrid() {
		t.Errorf("MRF = %v, want <1", m.Value)
	}
	if m.Seeds != 2 || m.Scenario != scenario.FrontRightActivity1 {
		t.Errorf("result = %+v", m)
	}
}

func TestFindMRFCutOut(t *testing.T) {
	// The cut-out collides at 1 FPR and is safe at higher rates, so MRF
	// lands strictly above 1 on a {1, 6, 30} grid.
	sc, _ := scenario.ByName(scenario.CutOut)
	m, err := FindMRF(context.Background(), testEng, sc, []float64{1, 6, 30}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.BelowGrid() {
		t.Error("cut-out MRF <1; expected collisions at 1 FPR")
	}
	if math.IsInf(m.Value, 1) {
		t.Error("cut-out unsafe even at 30 FPR")
	}
	if m.Collisions[1] == 0 {
		t.Error("no collisions recorded at 1 FPR")
	}
}

func TestCollisionRate(t *testing.T) {
	sc, _ := scenario.ByName(scenario.FrontRightActivity1)
	rate, err := CollisionRate(context.Background(), testEng, sc, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 0 {
		t.Errorf("benign collision rate = %v", rate)
	}
}

// testEng runs the real-simulation tests; they share its cache.
var testEng = engine.New(engine.Options{})

// fakeEngine builds an engine whose runner fabricates outcomes from a
// rule instead of simulating.
func fakeEngine(workers int, run func(engine.Job) (*sim.Result, error)) *engine.Engine {
	return engine.New(engine.Options{Workers: workers, Runner: run})
}

func TestFindMRFEarlyExitSkipsLowerRates(t *testing.T) {
	// Collide at every rate below 10: the descending search must stop at
	// the first colliding rate (5) and never schedule 1 or 2.
	eng := fakeEngine(2, func(j engine.Job) (*sim.Result, error) {
		res := &sim.Result{}
		if j.FPR < 10 {
			res.Collision = &trace.Collision{Time: 1, ActorID: "lead"}
		}
		return res, nil
	})
	sc := scenario.Spec{Name: "fake"}.Scenario()
	grid := []float64{1, 2, 5, 10, 30}
	m, err := FindMRF(context.Background(), eng, sc, grid, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Value != 10 {
		t.Errorf("MRF = %v, want 10", m.Value)
	}
	if m.Runs != 9 {
		t.Errorf("runs = %d, want 9 (3 waves x 3 seeds)", m.Runs)
	}
	for _, fpr := range []float64{30, 10} {
		if n, ok := m.Collisions[fpr]; !ok || n != 0 {
			t.Errorf("Collisions[%g] = %d,%v; want 0,true", fpr, n, ok)
		}
	}
	if n := m.Collisions[5]; n != 3 {
		t.Errorf("Collisions[5] = %d, want 3", n)
	}
	for _, fpr := range []float64{1, 2} {
		if _, ok := m.Collisions[fpr]; ok {
			t.Errorf("rate %g was run despite early exit", fpr)
		}
	}
}

func TestFindMRFJoinsAllErrors(t *testing.T) {
	// Every seed fails; with a pool as wide as the wave, a barrier
	// guarantees all three start before the first error cancels
	// anything, so all three failures must appear in the joined error.
	var entered sync.WaitGroup
	entered.Add(3)
	eng := fakeEngine(3, func(j engine.Job) (*sim.Result, error) {
		entered.Done()
		entered.Wait()
		return nil, fmt.Errorf("sim exploded at seed %d", j.Seed)
	})
	sc := scenario.Spec{Name: "fake"}.Scenario()
	_, err := FindMRF(context.Background(), eng, sc, []float64{30}, 3)
	if err == nil {
		t.Fatal("no error")
	}
	for seed := 1; seed <= 3; seed++ {
		want := fmt.Sprintf("fpr 30 seed %d: sim exploded at seed %d", seed, seed)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q:\n%v", want, err)
		}
	}
}

func TestFindMRFCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := fakeEngine(1, func(j engine.Job) (*sim.Result, error) {
		return &sim.Result{}, nil
	})
	sc := scenario.Spec{Name: "fake"}.Scenario()
	_, err := FindMRF(ctx, eng, sc, []float64{1, 2}, 2)
	if err == nil {
		t.Fatal("cancelled search returned nil error")
	}
}

func TestCollisionRateParallelFake(t *testing.T) {
	// Seeds 1..4: odd seeds collide -> rate 0.5, computed concurrently.
	eng := fakeEngine(4, func(j engine.Job) (*sim.Result, error) {
		res := &sim.Result{}
		if j.Seed%2 == 1 {
			res.Collision = &trace.Collision{Time: 1, ActorID: "x"}
		}
		return res, nil
	})
	sc := scenario.Spec{Name: "fake"}.Scenario()
	rate, err := CollisionRate(context.Background(), eng, sc, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 0.5 {
		t.Errorf("rate = %v, want 0.5", rate)
	}
}
