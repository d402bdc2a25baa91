package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestBaselineComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline comparison is slow")
	}
	rows, err := BaselineComparison(context.Background(), testEng, quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Zhuyi's peak per-camera demand should beat the uniform total on
	// asymmetric scenarios (activity concentrated in one camera). The
	// far cut-in is the clearest case: uniform provisioning pays the
	// minimum rate on all three analyzed cameras while Zhuyi leaves the
	// sides at 1 FPR.
	for _, r := range rows {
		if r.Scenario != "cut-in" {
			continue
		}
		if r.UniformFPR <= 0 {
			t.Fatal("cut-in grid search infeasible")
		}
		if r.ZhuyiPeakSum >= r.UniformTotal+5 {
			t.Errorf("Zhuyi demand %v far above the uniform total %v", r.ZhuyiPeakSum, r.UniformTotal)
		}
	}
	// Search cost bookkeeping: the reported Suraksha cost stays the
	// protocol's exhaustive rates x seeds, independent of how few points
	// the adaptive engine-backed search actually scheduled.
	opt := quickOptions()
	wantRuns := len(opt.FPRGrid) * opt.Seeds
	for _, r := range rows {
		if r.SearchRuns != wantRuns {
			t.Errorf("%s: runs = %d, want %d", r.Scenario, r.SearchRuns, wantRuns)
		}
	}
	var sb strings.Builder
	WriteBaselineComparison(&sb, rows, len(opt.FPRGrid), opt.Seeds)
	if !strings.Contains(sb.String(), "per-camera grid search") {
		t.Error("rendering missing cost note")
	}
}

func TestRSSComparisonShape(t *testing.T) {
	rows := RSSComparison()
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Both models agree on feasibility direction: a 6x-speed gap is
		// always feasible for both.
		if r.Gap >= r.EgoSpeed*6-1e-9 {
			if r.RSSRho == 0 {
				t.Errorf("RSS infeasible at the loose gap (%+v)", r)
			}
			if r.ZhuyiL == 0 {
				t.Errorf("Zhuyi infeasible at the loose gap (%+v)", r)
			}
		}
	}
	// Both models relax with the gap at fixed speeds.
	byGeometry := map[float64][]RSSComparisonRow{}
	for _, r := range rows {
		byGeometry[r.EgoSpeed] = append(byGeometry[r.EgoSpeed], r)
	}
	for v, rs := range byGeometry {
		for i := 1; i < len(rs); i++ {
			if rs[i].RSSRho < rs[i-1].RSSRho-1e-9 {
				t.Errorf("v=%v: RSS rho decreased with gap", v)
			}
			if rs[i].ZhuyiL < rs[i-1].ZhuyiL-1e-9 {
				t.Errorf("v=%v: Zhuyi latency decreased with gap", v)
			}
		}
	}
	var sb strings.Builder
	WriteRSSComparison(&sb, rows)
	if !strings.Contains(sb.String(), "RSS rho") {
		t.Error("rendering missing header")
	}
}
