package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"hash/fnv"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/search"
	"repro/internal/sim"
	"repro/internal/trace"
)

// searchFakeRunner mirrors the search package's deterministic fake:
// collision thresholds keyed on the scenario name, no simulation.
func searchFakeRunner(j engine.Job) (*sim.Result, error) {
	grid := metrics.DefaultFPRGrid()
	h := fnv.New64a()
	h.Write([]byte(j.Scenario.Name))
	idx := int(h.Sum64() % uint64(len(grid)+2))
	res := &sim.Result{Level: trace.LevelSummary, MinBumperGap: 3}
	if idx == len(grid)+1 || (idx < len(grid) && j.FPR < grid[idx]) {
		res.Collision = &trace.Collision{Time: 1, ActorID: "fake"}
	}
	return res, nil
}

func searchTestEngine(t *testing.T) *engine.Engine {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 4, Runner: searchFakeRunner})
	t.Cleanup(eng.Close)
	return eng
}

func postSearch(t *testing.T, base string, req SearchRequest) ([]search.GenerationSummary, *search.Result) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var gens []search.GenerationSummary
	var corpus *search.Result
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		var line SearchLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Error != "":
			t.Fatalf("stream error: %s", line.Error)
		case line.Generation != nil:
			if corpus != nil {
				t.Fatal("generation line after the corpus trailer")
			}
			gens = append(gens, *line.Generation)
		case line.Corpus != nil:
			if corpus != nil {
				t.Fatal("two corpus trailers")
			}
			corpus = line.Corpus
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if corpus == nil {
		t.Fatal("stream ended without a corpus trailer")
	}
	return gens, corpus
}

// TestSearchEndpointMatchesLibrary: the HTTP stream reproduces exactly
// what the search library produces for the same budget.
func TestSearchEndpointMatchesLibrary(t *testing.T) {
	ts := newTestServer(t, Options{Engine: searchTestEngine(t)})
	req := SearchRequest{
		Families:    []string{string(scenario.FamilyCutInChain), string(scenario.FamilyCrossing)},
		Seed:        13,
		Generations: 2,
		Population:  4,
		Seeds:       2,
		TopN:        5,
	}
	gens, corpus := postSearch(t, ts.URL, req)
	if len(gens) != 4 {
		t.Fatalf("got %d generation lines, want 4", len(gens))
	}
	if len(corpus.Corpus) != 5 {
		t.Fatalf("corpus has %d candidates, want 5", len(corpus.Corpus))
	}

	direct, err := search.Search(context.Background(), searchTestEngine(t), search.Options{
		Families:    []scenario.Family{scenario.FamilyCutInChain, scenario.FamilyCrossing},
		Seed:        13,
		Generations: 2,
		Population:  4,
		Seeds:       2,
		TopN:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(corpus, direct) {
		t.Fatal("HTTP corpus differs from the library's for the same budget")
	}
}

// TestSearchEndpointRejectsBadRequests: malformed budgets fail with
// 400 before any streaming starts.
func TestSearchEndpointRejectsBadRequests(t *testing.T) {
	ts := newTestServer(t, Options{Engine: searchTestEngine(t)})
	for name, req := range map[string]SearchRequest{
		"negative generations": {Generations: -1},
		"negative population":  {Population: -4},
		"negative seeds":       {Seeds: -1},
		"negative top":         {TopN: -1},
		"unknown family":       {Families: []string{"no-such-family"}},
		"bad grid":             {FPRGrid: []float64{0}},
		"over budget":          {Generations: 10, Population: 100, Seeds: 10},
	} {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader([]byte("not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
}
