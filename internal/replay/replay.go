// Package replay is the differential replay regression harness: it
// feeds traces archived in a persistent store (internal/store) back
// through the paper's offline pre-deployment evaluator (§3.1) and
// diffs what it finds against recorded baselines — the
// monitoring-by-comparison posture of "Monitoring of Perception
// Systems" applied to this repo's own stack. Replaying a stored trace
// costs one object read, one ZYT1 decode and one evaluator pass, which
// runs Zhuyi over a 15 s ground-truth horizon at every 100 ms instant,
// instead of a closed-loop simulation. Against this repo's kinematic
// simulator the two cost about the same, so what replay buys here is a
// check that does not trust the simulator; it saves time only where
// simulation is the expensive part, as in a GPU-driven stack.
//
// Run gives each worker goroutine one set of storage for the length of
// the call: a trace.RowBuffer each entry's object is read and decoded
// into, and an OfflineResult each evaluation overwrites. Once a worker
// has grown to the largest trace it has met, a replayed point
// allocates little more than its summary (TestReplayAllocBudget), so
// the collector rarely runs. docs/benchmarks.md, "Replay reuses its
// decode and evaluator storage", has the measurements.
//
// The quantities diffed per archived run: collision outcome (time and
// actor), closest bumper approach, the offline estimator's peak
// per-camera and summed FPR demands, and the safety-check alarm count
// (instants where a camera's recorded operating rate fell below its
// estimated requirement). Across runs, the per-scenario minimum
// required FPR is re-derived from the stored collision outcomes and
// the resulting scenario ordering — Table 1's difficulty ranking — is
// diffed as a whole.
package replay

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/trace"
)

// Summary is the replayed measurement of one archived run — every
// field participates in the differential check.
type Summary struct {
	Key      store.Key `json:"key"`
	Scenario string    `json:"scenario"`
	FPR      float64   `json:"fpr"`
	Seed     int64     `json:"seed"`
	Rows     int       `json:"rows"`

	Collided       bool    `json:"collided"`
	CollisionTime  float64 `json:"collision_time,omitempty"`
	CollisionActor string  `json:"collision_actor,omitempty"`
	MinGap         float64 `json:"min_gap"`
	MinGapInfinite bool    `json:"min_gap_infinite,omitempty"`
	EgoStopped     bool    `json:"ego_stopped,omitempty"`

	MaxEstFPR float64 `json:"max_est_fpr"`
	MaxSumFPR float64 `json:"max_sum_fpr"`
	Alarms    int     `json:"alarms"`
}

// Options configures a replay pass.
type Options struct {
	// EvalEvery is the offline evaluation period in seconds (default
	// 0.1, the repo-wide default). Baselines and replays must use the
	// same period or every estimate diverges trivially.
	EvalEvery float64
	// Workers bounds concurrent trace loads + evaluations; 0 defaults
	// to runtime.GOMAXPROCS(0).
	Workers int
	// Scenarios restricts the pass to these scenario names; empty
	// replays every archived run.
	Scenarios []string
}

func (o Options) withDefaults() Options {
	if o.EvalEvery <= 0 {
		o.EvalEvery = 0.1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Report is a completed replay pass.
type Report struct {
	Summaries []Summary // store-entry order: (scenario, FPR, seed)
	Wall      time.Duration
}

// Summarize replays one archived run: every summary field is
// re-derived from the stored trace itself — never copied from the
// manifest — so a regression anywhere in the pipeline that produced
// or reads the trace shows up as a divergence. (A manifest-copied
// field would compare the manifest to itself and could never fire.)
func Summarize(e store.Entry, tr *trace.Trace, opt Options) (Summary, error) {
	w := worker{est: core.NewEstimator()}
	return w.summarize(e, tr, opt.withDefaults())
}

// worker is one Run goroutine's storage, kept for the length of the
// call: an estimator, the buffer every entry's object is read and
// decoded into, and the offline result every evaluation overwrites. A
// replayed point then allocates only when its trace outgrows what the
// worker's earlier points left, and the worker holds one trace and
// one evaluation at a time.
type worker struct {
	est  *core.Estimator
	rows trace.RowBuffer
	off  *core.OfflineResult
}

// replay loads entry e into the worker's storage and summarizes it.
func (w *worker) replay(st *store.Store, e store.Entry, opt Options) (Summary, error) {
	tr, err := st.TraceInto(e, &w.rows)
	if err != nil {
		return Summary{}, err
	}
	return w.summarize(e, tr, opt)
}

func (w *worker) summarize(e store.Entry, tr *trace.Trace, opt Options) (Summary, error) {
	s := Summary{
		Key:      e.Key,
		Scenario: e.Scenario,
		FPR:      e.Key.FPR,
		Seed:     e.Key.Seed,
		Rows:     tr.Len(),
	}
	s.MinGap, s.MinGapInfinite = minGapFromTrace(tr)
	for i := range tr.Rows {
		if tr.Rows[i].Ego.Speed == 0 {
			s.EgoStopped = true
			break
		}
	}
	if tr.Collision != nil {
		s.Collided = true
		s.CollisionTime = tr.Collision.Time
		s.CollisionActor = tr.Collision.ActorID
	}
	off, err := w.est.EvaluateTraceInto(tr, core.OfflineOptions{EvalEvery: opt.EvalEvery}, w.off)
	if err != nil {
		return s, fmt.Errorf("replay: %s fpr %g seed %d: %w", e.Scenario, e.Key.FPR, e.Key.Seed, err)
	}
	w.off = off
	s.MaxEstFPR = off.MaxFPR()
	s.MaxSumFPR = off.MaxSumFPR()
	s.Alarms = countAlarms(tr, off)
	return s, nil
}

// minGapFromTrace re-derives the closest bumper approach from the
// recorded rows: for every actor laterally within a corridor of the
// ego (|perpendicular offset| <= 2.2 m in the ego frame), the
// along-heading distance minus the half-lengths. This is the trace's
// own view of sim.Result.MinBumperGap — computed in the ego frame
// rather than road Frenet coordinates, since the trace does not carry
// the road — and it is what the regression diff compares.
func minGapFromTrace(tr *trace.Trace) (gap float64, infinite bool) {
	gap = math.Inf(1)
	for i := range tr.Rows {
		row := &tr.Rows[i]
		fwd := row.Ego.Pose.Forward()
		for k := range row.Actors {
			a := &row.Actors[k]
			rel := a.Pose.Pos.Sub(row.Ego.Pose.Pos)
			along := rel.Dot(fwd)
			lat := rel.Sub(fwd.Scale(along))
			// Len is a hypot, never below either component, so a
			// component past 2.2 decides the reject without it.
			if math.Abs(lat.X) > 2.2 || math.Abs(lat.Y) > 2.2 || lat.Len() > 2.2 {
				continue
			}
			if g := math.Abs(along) - (row.Ego.Length+a.Length)/2; g < gap {
				gap = g
			}
		}
	}
	if math.IsInf(gap, 1) {
		return 0, true
	}
	return gap, false
}

// countAlarms counts (instant, camera) pairs where the recorded
// operating rate fell below the estimated requirement — the §3.2
// safety check evaluated post hoc over the archived trace.
func countAlarms(tr *trace.Trace, off *core.OfflineResult) int {
	alarms := 0
	for _, pt := range off.Points {
		i := tr.IndexAt(pt.Time)
		for cam, required := range pt.FPR {
			if tr.OperatingRate(i, cam)+1e-9 < required {
				alarms++
			}
		}
	}
	return alarms
}

// Run replays every matching archived run concurrently and returns
// their summaries in store-entry order.
func Run(ctx context.Context, st *store.Store, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	startAt := time.Now()
	entries := st.Entries()
	if len(opt.Scenarios) > 0 {
		want := make(map[string]bool, len(opt.Scenarios))
		for _, name := range opt.Scenarios {
			want[name] = true
		}
		kept := entries[:0]
		for _, e := range entries {
			if want[e.Scenario] {
				kept = append(kept, e)
			}
		}
		entries = kept
	}

	// opt.Workers goroutines pull entry indices from a shared counter,
	// so the goroutine count is bounded by the option, not the store.
	// Each decodes and evaluates into its own worker storage, dropped
	// when Run returns.
	summaries := make([]Summary, len(entries))
	errs := make([]error, len(entries))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(opt.Workers, len(entries)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := worker{est: core.NewEstimator()}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(entries) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				summaries[i], errs[i] = w.replay(st, entries[i], opt)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Report{Summaries: summaries, Wall: time.Since(startAt)}, nil
}

// BaselinePath is where a store keeps its recorded baselines.
func BaselinePath(st *store.Store) string {
	return filepath.Join(st.Dir(), "baselines.jsonl")
}

// WriteBaselines merges summaries into the store's baseline file
// (new keys appended, existing keys superseded) and rewrites it
// atomically in (scenario, FPR, seed) order.
func WriteBaselines(st *store.Store, summaries []Summary) error {
	merged, err := LoadBaselines(st)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	byKey := make(map[store.Key]int, len(merged))
	for i, s := range merged {
		byKey[s.Key] = i
	}
	for _, s := range summaries {
		if i, ok := byKey[s.Key]; ok {
			merged[i] = s
		} else {
			byKey[s.Key] = len(merged)
			merged = append(merged, s)
		}
	}
	sortSummaries(merged)

	var b strings.Builder
	for _, s := range merged {
		line, err := json.Marshal(s)
		if err != nil {
			return fmt.Errorf("replay: baseline %s: %w", s.Scenario, err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	path := BaselinePath(st)
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-baselines-*")
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.WriteString(b.String()); err != nil {
		tmp.Close()
		return fmt.Errorf("replay: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	return nil
}

// LoadBaselines reads the store's recorded baselines. A missing file
// returns an os.IsNotExist error, which "record" callers treat as an
// empty baseline set.
func LoadBaselines(st *store.Store) ([]Summary, error) {
	data, err := os.ReadFile(BaselinePath(st))
	if err != nil {
		return nil, err
	}
	var out []Summary
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var s Summary
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			return nil, fmt.Errorf("replay: baselines line %d: %w", i+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

func sortSummaries(ss []Summary) {
	sort.Slice(ss, func(i, j int) bool {
		a, b := ss[i], ss[j]
		if a.Scenario != b.Scenario {
			return a.Scenario < b.Scenario
		}
		if a.FPR != b.FPR {
			return a.FPR < b.FPR
		}
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		return a.Key.SimVersion < b.Key.SimVersion
	})
}

// Divergence is one baseline/replay disagreement.
type Divergence struct {
	Scenario string
	FPR      float64
	Seed     int64
	Field    string
	Baseline string
	Current  string
}

// String renders the divergence for reports.
func (d Divergence) String() string {
	point := ""
	switch d.Field {
	case "mrf":
		point = d.Scenario
	case "mrf-ordering":
		point = "corpus"
	default:
		point = fmt.Sprintf("%s fpr %g seed %d", d.Scenario, d.FPR, d.Seed)
	}
	return fmt.Sprintf("%s: %s: baseline %s, replay %s", point, d.Field, d.Baseline, d.Current)
}

// floatEq tolerates only representation-level noise: replays recompute
// with the same code over the same bytes, so anything beyond relative
// 1e-9 is a real regression.
func floatEq(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

// Diff compares a replay pass against recorded baselines, per run and
// then across runs (the MRF scenario ordering). Runs present on only
// one side are divergences too: a baseline without an artifact means
// the store lost data, an artifact without a baseline means the
// baselines were never refreshed after recording.
func Diff(baseline, current []Summary) []Divergence {
	var out []Divergence
	base := make(map[store.Key]Summary, len(baseline))
	for _, s := range baseline {
		base[s.Key] = s
	}
	seen := make(map[store.Key]bool, len(current))
	for _, cur := range current {
		seen[cur.Key] = true
		b, ok := base[cur.Key]
		if !ok {
			out = append(out, Divergence{Scenario: cur.Scenario, FPR: cur.FPR, Seed: cur.Seed,
				Field: "presence", Baseline: "absent", Current: "archived"})
			continue
		}
		out = append(out, diffRun(b, cur)...)
	}
	for _, b := range baseline {
		if !seen[b.Key] {
			out = append(out, Divergence{Scenario: b.Scenario, FPR: b.FPR, Seed: b.Seed,
				Field: "presence", Baseline: "recorded", Current: "missing"})
		}
	}
	out = append(out, diffMRF(baseline, current)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Scenario != b.Scenario {
			return a.Scenario < b.Scenario
		}
		if a.FPR != b.FPR {
			return a.FPR < b.FPR
		}
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		return a.Field < b.Field
	})
	return out
}

func diffRun(b, cur Summary) []Divergence {
	var out []Divergence
	add := func(field, baseVal, curVal string) {
		out = append(out, Divergence{Scenario: cur.Scenario, FPR: cur.FPR, Seed: cur.Seed,
			Field: field, Baseline: baseVal, Current: curVal})
	}
	if b.Rows != cur.Rows {
		add("rows", fmt.Sprint(b.Rows), fmt.Sprint(cur.Rows))
	}
	if b.Collided != cur.Collided {
		add("collided", fmt.Sprint(b.Collided), fmt.Sprint(cur.Collided))
	} else if b.Collided {
		if !floatEq(b.CollisionTime, cur.CollisionTime) {
			add("collision-time", fmt.Sprintf("%.3f", b.CollisionTime), fmt.Sprintf("%.3f", cur.CollisionTime))
		}
		if b.CollisionActor != cur.CollisionActor {
			add("collision-actor", b.CollisionActor, cur.CollisionActor)
		}
	}
	if b.MinGapInfinite != cur.MinGapInfinite || (!b.MinGapInfinite && !floatEq(b.MinGap, cur.MinGap)) {
		add("min-gap", gapString(b), gapString(cur))
	}
	if b.EgoStopped != cur.EgoStopped {
		add("ego-stopped", fmt.Sprint(b.EgoStopped), fmt.Sprint(cur.EgoStopped))
	}
	if !floatEq(b.MaxEstFPR, cur.MaxEstFPR) {
		add("max-est-fpr", fmt.Sprintf("%.6f", b.MaxEstFPR), fmt.Sprintf("%.6f", cur.MaxEstFPR))
	}
	if !floatEq(b.MaxSumFPR, cur.MaxSumFPR) {
		add("max-sum-fpr", fmt.Sprintf("%.6f", b.MaxSumFPR), fmt.Sprintf("%.6f", cur.MaxSumFPR))
	}
	if b.Alarms != cur.Alarms {
		add("alarms", fmt.Sprint(b.Alarms), fmt.Sprint(cur.Alarms))
	}
	return out
}

func gapString(s Summary) string {
	if s.MinGapInfinite {
		return "+Inf"
	}
	return fmt.Sprintf("%.3f", s.MinGap)
}

// MRFOf re-derives each scenario's minimum required FPR from stored
// collision outcomes, using the paper's definition over the rates the
// corpus actually holds: the lowest tested rate at and above which no
// seed collided; 0 encodes "<lowest tested"; +Inf means unsafe even at
// the highest tested rate.
func MRFOf(summaries []Summary) map[string]float64 {
	type point struct {
		fpr      float64
		collided bool
	}
	byScenario := make(map[string][]point)
	for _, s := range summaries {
		byScenario[s.Scenario] = append(byScenario[s.Scenario], point{s.FPR, s.Collided})
	}
	out := make(map[string]float64, len(byScenario))
	for name, pts := range byScenario {
		collidedAt := make(map[float64]bool)
		fprs := make([]float64, 0, len(pts))
		seen := make(map[float64]bool)
		for _, p := range pts {
			if p.collided {
				collidedAt[p.fpr] = true
			}
			if !seen[p.fpr] {
				seen[p.fpr] = true
				fprs = append(fprs, p.fpr)
			}
		}
		sort.Float64s(fprs)
		mrf := 0.0
		for i := len(fprs) - 1; i >= 0; i-- {
			if collidedAt[fprs[i]] {
				if i == len(fprs)-1 {
					mrf = math.Inf(1)
				} else {
					mrf = fprs[i+1]
				}
				break
			}
		}
		out[name] = mrf
	}
	return out
}

// MRFOrdering ranks scenarios by descending re-derived MRF (ties by
// name) — the corpus difficulty ordering Table 1 implies.
func MRFOrdering(summaries []Summary) []string {
	mrfs := MRFOf(summaries)
	names := make([]string, 0, len(mrfs))
	for name := range mrfs {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := names[i], names[j]
		if mrfs[a] != mrfs[b] {
			return mrfs[a] > mrfs[b]
		}
		return a < b
	})
	return names
}

// diffMRF compares per-scenario MRFs and the overall ordering.
func diffMRF(baseline, current []Summary) []Divergence {
	var out []Divergence
	bm, cm := MRFOf(baseline), MRFOf(current)
	for name, bv := range bm {
		if cv, ok := cm[name]; ok && bv != cv && !(math.IsInf(bv, 1) && math.IsInf(cv, 1)) {
			out = append(out, Divergence{Scenario: name, Field: "mrf",
				Baseline: mrfString(bv), Current: mrfString(cv)})
		}
	}
	bo, co := MRFOrdering(baseline), MRFOrdering(current)
	if strings.Join(bo, ",") != strings.Join(co, ",") {
		out = append(out, Divergence{Field: "mrf-ordering",
			Baseline: strings.Join(bo, " > "), Current: strings.Join(co, " > ")})
	}
	return out
}

func mrfString(v float64) string {
	if v == 0 {
		return "<min"
	}
	if math.IsInf(v, 1) {
		return "unsafe"
	}
	return fmt.Sprintf("%g", v)
}
