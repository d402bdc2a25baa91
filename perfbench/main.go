// Command perfbench is the repository's benchmark. It generates one
// workload's inputs from a seed, drives the program's packages with them
// for a fixed time, checks every output against an oracle, and prints
// the workload's metrics by name and unit, then one JSON line: the
// end-to-end metrics, or with -trace 1 the per-layer metrics of a traced
// run. README.md beside this file describes the workloads and metrics;
// run.sh builds and runs it:
//
//	bash perfbench/run.sh --workload table1_cold --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *bench) error{
	"table1_cold":   runCold,
	"table1_warm":   runWarm,
	"table1_replay": runReplay,
	"rate_mixed":    runRate,
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports in its JSON line;
// every workload measures each of them.
var endToEnd = []metricDef{
	{"points_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics a traced run reports in its JSON line. A
// metric of a layer the workload's end-to-end path does not reach, or of
// a component it does not run (the rate generator outside rate_mixed),
// reads 0.
var perLayer = []metricDef{
	{"scenario.build_us", "us"},
	{"sim.run_ms", "ms"},
	{"sim.run_s", "s"},
	{"sim.step_ns", "ns"},
	{"sim.steps", "count"},
	{"trace.jsonl_encode_ms", "ms"},
	{"trace.zyt_encode_ms", "ms"},
	{"trace.jsonl_mb", "MB"},
	{"trace.zyt_mb", "MB"},
	{"trace.zyt_decode_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.put_s", "s"},
	{"store.open_ms", "ms"},
	{"store.lookup_us", "us"},
	{"store.get_ms", "ms"},
	{"store.entries_ms", "ms"},
	{"store.trace_ms", "ms"},
	{"engine.executed", "count"},
	{"engine.archived", "count"},
	{"engine.disk_hits", "count"},
	{"engine.store_errors", "count"},
	{"engine.lockstep_groups", "count"},
	{"engine.lockstep_runs", "count"},
	{"engine.archive_pending_max", "count"},
	{"engine.first_point_ms", "ms"},
	{"engine.unattributed_share", "ratio"},
	{"core.evaluate_trace_ms", "ms"},
	{"core.eval_points", "count"},
	{"replay.summarize_ms", "ms"},
	{"replay.diff_ms", "ms"},
	{"replay.divergences", "count"},
	{"core.estimate_us", "us"},
	{"safety.controller_us", "us"},
	{"server.rate_handler_json_us", "us"},
	{"server.rate_handler_binary_us", "us"},
	{"server.rate_codec_json_us", "us"},
	{"server.rate_codec_binary_us", "us"},
	{"server.hist_rate_p50_us", "us"},
	{"server.hist_rate_p99_us", "us"},
	{"admission.yields", "count"},
	{"admission.waited_ms", "ms"},
	{"net.rate_gap_us", "us"},
	{"gen.late_p50_us", "us"},
	{"gen.late_p99_us", "us"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"scenario.busy_s", "s"},
	{"sim.busy_s", "s"},
	{"trace.busy_s", "s"},
	{"store.busy_s", "s"},
	{"core.busy_s", "s"},
	{"safety.busy_s", "s"},
	{"replay.busy_s", "s"},
	{"server.busy_s", "s"},
	{"tracing.sweep_s", "s"},
	{"tracing.e2e_s", "s"},
	{"tracing.overhead", "ratio"},
	{"rate_p50_us", "us"},
	{"rate_p99_us", "us"},
	{"store_mb", "MB"},
}

// maxMisses bounds how many oracle misses a run keeps for its report.
const maxMisses = 20

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run measured and what its oracle found.
type result struct {
	attempted, failed int
	misses            int
	missLog           []string
	metrics           map[string]metric
	order             []string
}

func (r *result) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// miss records an oracle failure; any miss fails the run.
func (r *result) miss(format string, args ...any) {
	r.misses++
	if len(r.missLog) < maxMisses {
		r.missLog = append(r.missLog, fmt.Sprintf(format, args...))
	}
}

// line is the JSON object a run prints last.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) line(defs []metricDef) line {
	l := line{Correct: r.misses == 0 && r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok {
			m = metric{Unit: d.unit}
		}
		l.Metrics[d.name] = m
	}
	return l
}

// bench carries one run's settings and its result.
type bench struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	work     string // scratch directory for stores, inside the checkout
	workers  int    // engine and replay workers: nproc−1, leaving a core free
	res      *result
}

// A run builds its fixture at least setupReps times and for at least
// setupMin; setup_s is the median build.
const (
	setupReps = 3
	setupMin  = 3 * time.Second
)

// setup builds a workload's fixture repeatedly and reports the median
// build time as setup_s. The last build's products stay in use.
func (b *bench) setup(build func() error) error {
	var ds []time.Duration
	for len(ds) < setupReps || sum(ds) < setupMin {
		t := time.Now()
		if err := build(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		ds = append(ds, time.Since(t))
	}
	b.res.set("setup_s", medianDur(ds).Seconds(), "s")
	b.res.set("setup_builds", float64(len(ds)), "count")
	return nil
}

func main() {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	workload := flag.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the timed region, s")
	traced := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0 or 1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		traced:   *traced == 1,
		work:     filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid())),
		workers:  max(1, runtime.NumCPU()-1),
		res:      &result{metrics: map[string]metric{}},
	}
	err := os.MkdirAll(b.work, 0o755)
	if err == nil {
		err = run(context.Background(), b)
	}
	if rerr := os.RemoveAll(b.work); err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(b.print())
}

// print writes the report and the JSON line, returning the exit code.
func (b *bench) print() int {
	r := b.res
	if r.attempted > 0 {
		r.set("fail_ratio", float64(r.failed)/float64(r.attempted), "ratio")
	}
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Printf("%-14s %-30s %16.6f %s\n", b.workload, name, m.Value, m.Unit)
	}
	for _, m := range r.missLog {
		fmt.Fprintln(os.Stderr, "oracle miss:", m)
	}
	if r.misses > len(r.missLog) {
		fmt.Fprintf(os.Stderr, "oracle: %d misses, %d shown\n", r.misses, len(r.missLog))
	}
	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	l := r.line(defs)
	out, err := json.Marshal(l)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !l.Correct || r.attempted == 0 {
		return 1
	}
	return 0
}
