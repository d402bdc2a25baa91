package fabric

// The serving-tier guarantee of the fabric: POST /v1/rate never
// touches a replica. The coordinator answers it from its own pooled
// path, so rate traffic keeps flowing — and keeps being histogram-
// accounted in the coordinator's own stats — even while a replica is
// dead mid-campaign and the retry machinery is busy rehoming points.

import (
	"context"
	"testing"
	"time"

	zhuyi "repro"
	"repro/internal/server"
)

func fabricRateRequest() zhuyi.RateRequest {
	return zhuyi.RateRequest{
		Time: 2.0,
		Ego:  zhuyi.AgentState{ID: "ego", Speed: 20},
		Actors: []zhuyi.AgentState{
			{ID: "lead", X: 28, Speed: 14, Accel: -2},
		},
		Operating: map[string]float64{"front120": 10},
	}
}

func TestRateServedLocallyDuringReplicaDeath(t *testing.T) {
	dir := t.TempDir()
	points := table1Points(2, 5)
	s1, _ := replica(t, dir)
	s2, _ := replica(t, dir)
	victim, _, cts := ownedVictim(t, dir, []string{s1.URL, s2.URL}, points, Options{Backoff: 300 * time.Millisecond})

	campDone := make(chan error, 1)
	go func() {
		cl := zhuyi.NewClient(cts.URL)
		_, err := cl.Campaign(context.Background(), points)
		campDone <- err
	}()

	// Rate traffic concurrent with the campaign (and the replica death
	// it will hit): every request must answer, no matter what the
	// fabric is recovering from.
	cl := zhuyi.NewClient(cts.URL)
	req := fabricRateRequest()
	const during, after = 40, 20
	for i := 0; i < during; i++ {
		rr, err := cl.Rate(context.Background(), req)
		if err != nil {
			t.Fatalf("rate request %d during campaign: %v", i, err)
		}
		if len(rr.Rates) == 0 || rr.Check == nil {
			t.Fatalf("rate request %d: empty answer %+v", i, rr)
		}
	}
	if err := <-campDone; err != nil {
		t.Fatalf("campaign did not survive the replica death: %v", err)
	}

	// The victim is now known-dead. Rate requests — JSON and binary —
	// must keep answering locally.
	for i := 0; i < after; i++ {
		var rr zhuyi.RateResponse
		var err error
		if i%2 == 0 {
			rr, err = cl.Rate(context.Background(), req)
		} else {
			rr, err = cl.RateBinary(context.Background(), req)
		}
		if err != nil {
			t.Fatalf("rate request %d with dead replica: %v", i, err)
		}
		if len(rr.Rates) == 0 {
			t.Fatalf("rate request %d with dead replica: empty answer", i)
		}
	}

	stats := coordStats(t, cts.URL)
	var victimHealthy *bool
	for i := range stats.Fabric.Replicas {
		if stats.Fabric.Replicas[i].URL == victim.URL {
			victimHealthy = &stats.Fabric.Replicas[i].Healthy
		}
	}
	if victimHealthy == nil {
		t.Fatal("victim missing from fabric stats")
	}
	if *victimHealthy {
		t.Error("victim still marked healthy after dropping its stream")
	}

	// Histogram accounting: every rate request this test sent landed in
	// the coordinator's own rate histogram, surfaced both as a latency
	// row and as the fabric block's rate_local proof-of-locality.
	const total = during + after
	var rateRow *server.EndpointLatency
	for i := range stats.Latency {
		if stats.Latency[i].Route == "POST /v1/rate" {
			rateRow = &stats.Latency[i]
		}
	}
	if rateRow == nil {
		t.Fatal("no POST /v1/rate latency row in coordinator stats")
	}
	if rateRow.Count != total {
		t.Errorf("rate latency row count %d, want %d", rateRow.Count, total)
	}
	if stats.Fabric.RateLocal == nil {
		t.Fatal("fabric stats carry no rate_local block")
	}
	if stats.Fabric.RateLocal.Count != total {
		t.Errorf("rate_local count %d, want %d", stats.Fabric.RateLocal.Count, total)
	}
	if stats.Fabric.RateLocal.P99US <= 0 {
		t.Errorf("rate_local p99 %.1fµs, want positive", stats.Fabric.RateLocal.P99US)
	}
	// The campaign stream shows up under its own route, not the rate
	// histogram — accounting is per-endpoint.
	for i := range stats.Latency {
		if stats.Latency[i].Route == "POST /v1/campaign" && stats.Latency[i].Count != 1 {
			t.Errorf("campaign latency count %d, want 1", stats.Latency[i].Count)
		}
	}
}
