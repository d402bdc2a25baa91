package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestPropertyCorpusSweepSmall runs a small generated corpus end to end
// on a private engine: every scenario gets an MRF, the distribution
// accounts for every row, and a repeated sweep is served from cache.
func TestPropertyCorpusSweepSmall(t *testing.T) {
	eng := engine.New(engine.Options{})
	defer eng.Close()
	opt := CorpusOptions{
		N:       4,
		GenSeed: 9,
		Seeds:   2,
		FPRGrid: []float64{1, 4, 30},
	}
	res, err := CorpusSweep(context.Background(), eng, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != opt.N {
		t.Fatalf("rows = %d, want %d", len(res.Rows), opt.N)
	}
	total := 0
	for _, n := range res.Dist {
		total += n
	}
	if total != opt.N {
		t.Errorf("distribution covers %d scenarios, want %d", total, opt.N)
	}
	names := map[string]bool{}
	for _, row := range res.Rows {
		if names[row.Name] {
			t.Errorf("duplicate corpus member %s", row.Name)
		}
		names[row.Name] = true
		if row.Family == "" || row.Family == "registered" {
			t.Errorf("%s: family %q for a generated member", row.Name, row.Family)
		}
	}

	before := eng.Stats().Executed
	again, err := CorpusSweep(context.Background(), eng, opt)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Executed != before {
		t.Errorf("repeated sweep re-simulated points (%d -> %d executions)",
			before, eng.Stats().Executed)
	}
	for i := range res.Rows {
		if res.Rows[i].MRF.Value != again.Rows[i].MRF.Value {
			t.Errorf("%s: MRF changed across cached sweeps", res.Rows[i].Name)
		}
	}

	var buf bytes.Buffer
	WriteCorpus(&buf, res)
	if !strings.Contains(buf.String(), "MRF distribution over 4 scenarios") {
		t.Errorf("summary missing:\n%s", buf.String())
	}
	buf.Reset()
	if err := CorpusCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != opt.N+1 {
		t.Errorf("csv lines = %d, want %d", got, opt.N+1)
	}
}

// TestPropertyCorpusSweepsDontAliasAcrossSeeds: sweeps from different
// generator seeds share an engine without sharing cache slots — their
// scenario names embed the generator identity, so the second sweep
// simulates its own corpus instead of replaying the first one's.
func TestPropertyCorpusSweepsDontAliasAcrossSeeds(t *testing.T) {
	eng := engine.New(engine.Options{})
	defer eng.Close()
	opt := CorpusOptions{N: 2, GenSeed: 1, Seeds: 1, FPRGrid: []float64{2, 30}}
	first, err := CorpusSweep(context.Background(), eng, opt)
	if err != nil {
		t.Fatal(err)
	}
	executed := eng.Stats().Executed
	opt.GenSeed = 2
	second, err := CorpusSweep(context.Background(), eng, opt)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Executed == executed {
		t.Error("second sweep ran zero simulations: corpora aliased across generator seeds")
	}
	for i := range first.Rows {
		if first.Rows[i].Name == second.Rows[i].Name {
			t.Errorf("row %d: name %s reused across generator seeds", i, first.Rows[i].Name)
		}
	}
}

// TestCorpusSweepIncludesTaggedRegistered: tags pull registered
// scenarios into the sweep alongside the generated members.
func TestCorpusSweepIncludesTaggedRegistered(t *testing.T) {
	eng := engine.New(engine.Options{})
	defer eng.Close()
	res, err := CorpusSweep(context.Background(), eng, CorpusOptions{
		N:       1,
		GenSeed: 2,
		Tags:    []string{scenario.TagVariant},
		Seeds:   1,
		FPRGrid: []float64{30},
	})
	if err != nil {
		t.Fatal(err)
	}
	variants := len(scenario.Default().List(scenario.TagVariant))
	wantRows := variants + 1
	if len(res.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d (variants + 1 generated)", len(res.Rows), wantRows)
	}
	registered := 0
	for _, row := range res.Rows {
		if row.Family == "registered" {
			registered++
		}
	}
	if registered != variants {
		t.Errorf("registered rows = %d, want %d", registered, variants)
	}
}

// TestCorpusSweepRecordLevelStampsGeneratedSpecs proves the sweep's
// recording level reaches generated members through any engine: a
// summary-level sweep on a plain (full-policy) engine never
// materializes rows, and its corpus prefix is level-distinct so it
// cannot alias a full-level sweep's cached runs.
func TestCorpusSweepRecordLevelStampsGeneratedSpecs(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2, Runner: func(j engine.Job) (*sim.Result, error) {
		res, err := engine.DefaultRunner(j)
		if err == nil && res.Level != trace.LevelSummary {
			t.Errorf("%s ran at level %v, want summary", j.Scenario.Name, res.Level)
		}
		if !strings.Contains(j.Scenario.Name, "-summary/") {
			t.Errorf("corpus member %q lacks the level-distinct prefix", j.Scenario.Name)
		}
		return res, err
	}})
	defer eng.Close()
	res, err := CorpusSweep(context.Background(), eng, CorpusOptions{
		N: 2, GenSeed: 7, Seeds: 1, FPRGrid: []float64{5, 30},
		Record: trace.LevelSummary,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}
