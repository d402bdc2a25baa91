package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sensor"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/world"
)

const (
	// gridSeeds is N, the campaign seeds per Table-1 grid: 9 scenarios ×
	// 12 rates × N points. One seed keeps a cold pass near three seconds
	// on two cores, so a run holds several passes.
	gridSeeds = 1
	// sourceRunsPerScenario is how many recorded runs of each Table-1
	// scenario the rate snapshots are sampled from.
	sourceRunsPerScenario = 2
	// rateSnapshots is the number of distinct rate request snapshots. It
	// is odd, so the alternating wire modes give every snapshot both.
	rateSnapshots = 257
)

// wireModes are the two /v1/rate encodings, by the index rateInput uses.
var wireModes = [2]string{"application/json", server.RateBinaryContentType}

// inputs is everything a workload feeds the program, derived from the
// workload seed alone.
type inputs struct {
	grid    []engine.Job // Table-1 scenarios × FPR grid × campaign seeds
	sources []engine.Job // recorded runs the rate snapshots come from
	bgSeed  int64        // first seed of the background campaign stream
	rng     *rand.Rand   // the rest of the seeded stream (snapshot picks)
}

// rateInput is one /v1/rate request in both wire modes, plus the
// snapshot it encodes, which the traced run lowers itself.
type rateInput struct {
	snap      world.Snapshot
	operating map[string]float64
	body      [2][]byte
}

// newInputs derives a workload's inputs from its seed.
func newInputs(seed int64) inputs {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5a687579))
	in := inputs{rng: rng}
	table1 := scenario.All()
	grid := metrics.DefaultFPRGrid()
	for range gridSeeds {
		s := 1 + rng.Int64N(1<<40)
		for _, sc := range table1 {
			for _, f := range grid {
				in.grid = append(in.grid, engine.Job{Scenario: sc, FPR: f, Seed: s})
			}
		}
	}
	for _, sc := range table1 {
		for range sourceRunsPerScenario {
			in.sources = append(in.sources, engine.Job{Scenario: sc, FPR: grid[rng.IntN(len(grid))], Seed: 1 + rng.Int64N(1<<40)})
		}
	}
	in.bgSeed = 1 + rng.Int64N(1<<40)
	return in
}

// recordSources simulates the snapshot source runs at full level.
func recordSources(jobs []engine.Job) ([]*trace.Trace, error) {
	out := make([]*trace.Trace, len(jobs))
	for i, j := range jobs {
		cfg := j.Scenario.Build(j.FPR, j.Seed)
		cfg.Record = trace.LevelFull
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("record %s fpr %g seed %d: %w", j.Scenario.Name, j.FPR, j.Seed, err)
		}
		out[i] = res.Trace
	}
	return out, nil
}

// rateInputs samples the request snapshots from recorded runs, using
// the seeded stream, and encodes each in both wire modes.
func rateInputs(rng *rand.Rand, traces []*trace.Trace) ([]rateInput, error) {
	out := make([]rateInput, rateSnapshots)
	for k := range out {
		tr := traces[rng.IntN(len(traces))]
		i := rng.IntN(tr.Len())
		snap := tr.Snapshot(i)
		operating := make(map[string]float64)
		for _, cam := range sensor.AnalyzedCameras() {
			operating[cam] = tr.OperatingRate(i, cam)
		}
		req := server.RateRequest{Time: snap.Time, Ego: agentToWire(snap.Ego), Operating: operating}
		for _, a := range snap.Actors {
			req.Actors = append(req.Actors, agentToWire(a))
		}
		js, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("encode rate request: %w", err)
		}
		bin, err := server.AppendRateRequestBinary(nil, req)
		if err != nil {
			return nil, fmt.Errorf("encode rate request: %w", err)
		}
		out[k] = rateInput{snap: snap, operating: operating, body: [2][]byte{js, bin}}
	}
	return out, nil
}

func agentToWire(a world.Agent) server.AgentState {
	return server.AgentState{
		ID: a.ID, X: a.Pose.Pos.X, Y: a.Pose.Pos.Y, Heading: a.Pose.Heading,
		Speed: a.Speed, Accel: a.Accel, LatVel: a.LatVel,
		Length: a.Length, Width: a.Width, Lane: a.Lane, Static: a.Static,
	}
}

// backgroundBody is the JSON body of background campaign batch b: the
// whole Table-1 grid at one fresh seed, so no point is a cache hit.
func backgroundBody(in inputs, b int) ([]byte, int, error) {
	var req server.CampaignRequest
	seed := in.bgSeed + int64(b)
	for _, sc := range scenario.All() {
		for _, f := range metrics.DefaultFPRGrid() {
			req.Points = append(req.Points, server.Point{Scenario: sc.Name, FPR: f, Seed: seed})
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, fmt.Errorf("encode campaign: %w", err)
	}
	return body, len(req.Points), nil
}
