// Package trace records driving-scenario executions: the ground-truth
// states of the ego and all actors at every time-step, the planner
// commands, and the per-camera operating rates. Traces are what the
// paper's pre-deployment flow consumes ("For each AV tested scenario,
// the scenario trace is collected which includes the states of the ego
// and all the actors at all the time-steps", §3.1); the offline Zhuyi
// evaluator walks them start to end.
//
// Traces serialize as JSON Lines: a header line with metadata followed
// by one line per row, so multi-minute scenarios stream without holding
// an extra copy in memory.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/world"
)

// Meta describes how a trace was produced.
type Meta struct {
	Scenario string   `json:"scenario"`
	FPR      float64  `json:"fpr"`  // configured uniform per-camera FPR
	Seed     int64    `json:"seed"` // noise seed
	Dt       float64  `json:"dt"`   // step, s
	Cameras  []string `json:"cameras"`
}

// Collision records the first ego collision, if any.
type Collision struct {
	Time    float64 `json:"time"`
	ActorID string  `json:"actor_id"`
}

// Row is one recorded time-step.
type Row struct {
	Time     float64       `json:"t"`
	Ego      world.Agent   `json:"ego"`
	Actors   []world.Agent `json:"actors"`
	CmdAccel float64       `json:"cmd_accel"`
	AEB      bool          `json:"aeb,omitempty"`
	// Rates is the operating FPR per camera. It is recorded only under
	// dynamic rate control; fixed-rate runs omit it and Meta.FPR
	// applies to every camera (see OperatingRate).
	Rates map[string]float64 `json:"rates,omitempty"`
}

// Trace is a recorded scenario execution.
type Trace struct {
	Meta      Meta
	Rows      []Row
	Collision *Collision
}

// Len returns the number of rows.
func (tr *Trace) Len() int { return len(tr.Rows) }

// Snapshot converts row i into a world snapshot.
func (tr *Trace) Snapshot(i int) world.Snapshot {
	r := tr.Rows[i]
	return world.Snapshot{Time: r.Time, Ego: r.Ego, Actors: r.Actors}
}

// header is the first JSONL line.
type header struct {
	Meta      Meta       `json:"meta"`
	Collision *Collision `json:"collision,omitempty"`
}

// Write serializes the trace as JSON Lines.
func (tr *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{Meta: tr.Meta, Collision: tr.Collision}); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for i := range tr.Rows {
		if err := enc.Encode(&tr.Rows[i]); err != nil {
			return fmt.Errorf("trace: write row %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Read parses a JSON Lines trace.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("trace: read header: %w", err)
		}
		return nil, fmt.Errorf("trace: empty input")
	}
	var h header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("trace: parse header: %w", err)
	}
	tr := &Trace{Meta: h.Meta, Collision: h.Collision}
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var row Row
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return nil, fmt.Errorf("trace: parse line %d: %w", line, err)
		}
		tr.Rows = append(tr.Rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: scan: %w", err)
	}
	return tr, nil
}

// OperatingRate returns the FPR a camera was running at during row i:
// the row's recorded rate under dynamic rate control, or the uniform
// configured rate (Meta.FPR) for fixed-rate runs.
func (tr *Trace) OperatingRate(i int, camera string) float64 {
	if i >= 0 && i < len(tr.Rows) {
		if r, ok := tr.Rows[i].Rates[camera]; ok {
			return r
		}
	}
	return tr.Meta.FPR
}

// IndexAt returns the row index of the last row with Time <= t (or 0).
func (tr *Trace) IndexAt(t float64) int {
	lo, hi := 0, len(tr.Rows)-1
	if hi < 0 {
		return 0
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if tr.Rows[mid].Time <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}
