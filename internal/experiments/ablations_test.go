package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestConfirmationDepthAblationMonotone(t *testing.T) {
	rows, err := ConfirmationDepthAblation(context.Background(), testEng, []int{1, 3, 5, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Deeper confirmation inflates the reaction time, so the required
	// rate must not decrease with K.
	for i := 1; i < len(rows); i++ {
		if rows[i].MaxFPR < rows[i-1].MaxFPR-1e-9 {
			t.Errorf("MaxFPR decreased from %s (%v) to %s (%v)",
				rows[i-1].Label, rows[i-1].MaxFPR, rows[i].Label, rows[i].MaxFPR)
		}
	}
	if rows[0].MaxFPR >= rows[len(rows)-1].MaxFPR {
		t.Errorf("K had no effect: %v vs %v", rows[0].MaxFPR, rows[len(rows)-1].MaxFPR)
	}
	var sb strings.Builder
	WriteAblation(&sb, "confirmation depth", rows)
	if !strings.Contains(sb.String(), "K=5") {
		t.Error("rendering missing rows")
	}
}

func TestAlphaModelAblation(t *testing.T) {
	rows, err := AlphaModelAblation(context.Background(), testEng)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	paper, zero := rows[0], rows[1]
	// The paper's alpha inflates reaction time relative to steady state
	// (for l > l0), so its estimates are at least as demanding.
	if paper.MaxFPR < zero.MaxFPR-1e-9 {
		t.Errorf("paper alpha (%v) less demanding than steady state (%v)", paper.MaxFPR, zero.MaxFPR)
	}
}

func TestSearchModeAblation(t *testing.T) {
	rows, err := SearchModeAblation(context.Background(), testEng)
	if err != nil {
		t.Fatal(err)
	}
	accel, naive := rows[0], rows[1]
	// The Eq.-3 stepping must do far less work...
	if accel.Evals >= naive.Evals {
		t.Errorf("accelerated evals %d not below naive %d", accel.Evals, naive.Evals)
	}
	// ...without being more optimistic.
	if accel.MaxFPR < naive.MaxFPR-1e-9 {
		t.Errorf("accelerated estimates (%v) more optimistic than naive (%v)", accel.MaxFPR, naive.MaxFPR)
	}
}

func TestUncertaintyAblationMonotone(t *testing.T) {
	rows, err := UncertaintyAblation(context.Background(), testEng, []float64{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].MaxFPR < rows[i-1].MaxFPR-1e-9 {
			t.Errorf("MaxFPR decreased with sigma: %v after %v", rows[i].MaxFPR, rows[i-1].MaxFPR)
		}
	}
}

func TestAggregationAblationOrdering(t *testing.T) {
	rows, err := AggregationAblation(context.Background(), testEng)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Pessimistic <= p99 <= p90 <= mean in minimum latency (pessimistic
	// is the tightest).
	for i := 1; i < len(rows); i++ {
		if rows[i].MinLatency < rows[i-1].MinLatency-1e-9 {
			t.Errorf("mode %s (%v) tighter than %s (%v)",
				rows[i].Label, rows[i].MinLatency, rows[i-1].Label, rows[i-1].MinLatency)
		}
	}
	var sb strings.Builder
	WriteAggregationAblation(&sb, rows)
	if !strings.Contains(sb.String(), "p99") {
		t.Error("rendering missing modes")
	}
}

func TestCSVExports(t *testing.T) {
	// Table 1 CSV (tiny grid).
	rows := []Table1Row{{
		Scenario:    "cut-out",
		EgoSpeedMPH: 20,
		Front:       true,
		Estimates:   map[float64]float64{1: 2.5},
		MaxSumFPR:   5,
		Fraction:    0.06,
	}}
	var buf bytes.Buffer
	if err := Table1CSV(&buf, rows, []float64{1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "scenario,ego_mph") || !strings.Contains(out, "cut-out") {
		t.Errorf("table1 csv:\n%s", out)
	}

	// Series CSV.
	fs := &FigureSeries{
		Times: []float64{0, 0.1},
		Left:  []float64{1, 1}, Front: []float64{0.2, 0.3}, Right: []float64{1, 1},
		Accel: []float64{0, -3},
	}
	buf.Reset()
	if err := SeriesCSV(&buf, fs); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Errorf("series csv lines = %d", lines)
	}

	// Online CSV.
	os := &OnlineSeries{Times: []float64{0}, Front: []float64{0.5}, Offline: []float64{0.6}}
	buf.Reset()
	if err := OnlineCSV(&buf, os); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "online_ms") {
		t.Error("online csv missing header")
	}

	// Sweep CSV.
	buf.Reset()
	if err := SweepCSV(&buf, Figure8(30)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "unavoidable") {
		t.Error("sweep csv missing unavoidable cells")
	}

	// Headline CSV.
	buf.Reset()
	hr := []HeadlineRow{{Scenario: "x", BaselineFrames: 100, ZhuyiFrames: 40, FrameFraction: 0.4, BaselineSafe: true, ZhuyiSafe: true}}
	if err := HeadlineCSV(&buf, hr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0.4000") {
		t.Errorf("headline csv:\n%s", buf.String())
	}
}
